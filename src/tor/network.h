// TorNetwork — assembles complete Tor deployments for every phase of
// §3.2's incremental deployment model and drives them over the simulator.
// Used by the integration tests, the tor_network example and the Table 3 /
// A4 benches.
#pragma once

#include "core/node.h"
#include "core/open_project.h"
#include "sgx/adversary.h"
#include "tor/attacks.h"
#include "tor/client.h"
#include "tor/dht.h"
#include "tor/directory.h"
#include "tor/relay.h"

namespace tenet::tor {

struct TorNetworkConfig {
  Phase phase = Phase::kBaseline;
  size_t n_authorities = 3;  // Tor runs nine; tests use fewer for speed
  size_t n_relays = 6;       // every relay doubles as a possible exit
  size_t n_clients = 1;
  uint64_t seed = 2015;
  /// Opt the directory authorities into fault recovery (attestation
  /// retry, re-handshake on peer restart) — for scenarios that inject
  /// faults. Relays and clients run without it either way.
  bool robust = false;
  netsim::RetryPolicy retry;  // used when robust
  /// Serve every enclave node's transitions through switchless rings
  /// (DESIGN.md §10). Application output is byte-identical either way;
  /// only cost accounting and sgx.switchless.* telemetry change.
  bool switchless = false;
  sgx::SwitchlessConfig switchless_config;
};

/// A destination web server outside Tor; replies "echo:<request>" and
/// records the plaintext it served (ground truth for tamper detection).
class DestinationServer final : public netsim::Node {
 public:
  using netsim::Node::Node;
  void handle_message(const netsim::Message& msg) override;
  [[nodiscard]] const std::vector<crypto::Bytes>& requests_seen() const {
    return requests_;
  }

 private:
  std::vector<crypto::Bytes> requests_;
};

class TorNetwork {
 public:
  explicit TorNetwork(TorNetworkConfig config);

  [[nodiscard]] netsim::Simulator& sim() { return sim_; }
  [[nodiscard]] const TorNetworkConfig& config() const { return config_; }

  [[nodiscard]] core::EnclaveNode& authority(size_t i) { return *authorities_.at(i); }
  [[nodiscard]] core::EnclaveNode& relay(size_t i) { return *relays_.at(i); }
  [[nodiscard]] core::EnclaveNode& client(size_t i) { return *clients_.at(i); }
  [[nodiscard]] DestinationServer& destination() { return *destination_; }
  [[nodiscard]] size_t authority_count() const { return authorities_.size(); }
  [[nodiscard]] size_t relay_count() const { return relays_.size(); }

  // --- Adversaries (§3.2's attack catalogue) ---
  /// Adds an exit that flips plaintext bytes. Returns its node.
  core::EnclaveNode& add_tampering_exit();
  /// Adds an exit that logs plaintext for its operator.
  core::EnclaveNode& add_snooping_exit();
  /// Adds a subverted authority that plants `planted_relay` into the
  /// consensus it serves.
  core::EnclaveNode& add_subverted_authority(netsim::NodeId planted_relay);

  // --- Orchestration ---
  /// Authorities attest each other pairwise (SGX phases).
  void attest_authority_mesh(const std::vector<size_t>& authority_indices);
  /// Every relay uploads its descriptor to every listed authority.
  void publish_descriptors(const std::vector<size_t>& authority_indices);
  /// Manual admission: authority `i` approves every pending relay
  /// (baseline behaviour — the bottleneck §3.2 complains about).
  void approve_all_pending(size_t authority_index);
  /// Authorities vote and compute consensus (total = participants).
  void run_vote(uint32_t epoch, const std::vector<size_t>& authority_indices);

  [[nodiscard]] std::optional<Consensus> consensus_of(size_t authority_index);
  /// Client pulls the consensus from an arbitrary directory node (possibly
  /// a subverted one). Returns whether it accepted a document.
  bool fetch_consensus(size_t client_index, netsim::NodeId directory_node);
  /// Fully-SGX path: the host assembles directory info from DHT lookups
  /// and hands it to the client (integrity comes from relay attestation,
  /// not from the directory — that is the §3.2 point).
  bool install_directory_from_ring(size_t client_index);

  /// Builds a 3-hop circuit; returns true if it reached kReady.
  bool build_circuit(size_t client_index, netsim::NodeId guard,
                     netsim::NodeId mid, netsim::NodeId exit);
  /// In-enclave path selection (kCtlBuildAutoCircuit).
  bool build_auto_circuit(size_t client_index);
  [[nodiscard]] CircuitState circuit_state(size_t client_index);
  [[nodiscard]] std::string circuit_failure(size_t client_index);

  /// Sends a request through the client's circuit to the destination
  /// server; returns the response (nullopt if none arrived).
  std::optional<std::string> request(size_t client_index,
                                     std::string_view payload);

  // --- Metrics (Table 3) ---
  [[nodiscard]] uint64_t client_attestations(size_t client_index);
  [[nodiscard]] uint64_t authority_attestations(size_t authority_index);

  // --- Fully-SGX membership ring ---
  [[nodiscard]] ChordRing& ring() { return ring_; }
  /// All faithful relays join the DHT.
  void join_ring_all();

  /// Snooping-exit exfiltration (host side; works on any phase where the
  /// snoop actually ran as an exit).
  std::vector<crypto::Bytes> dump_snoop_log(core::EnclaveNode& snoop);

  // --- Fault drill (§3.2 restart story) ---
  /// Checkpoints authority `i`'s sealed state, injects a real EPC fault
  /// (the node goes dead), restarts the enclave from its image, and
  /// restores the checkpoint. Returns true if the state was restored.
  bool crash_and_recover_authority(size_t authority_index);

 private:
  struct Policies {
    ClientPolicy client;
    AuthorityPolicy authority;
    bool relays_claim_sgx = false;
  };
  [[nodiscard]] Policies phase_policies() const;

  TorNetworkConfig config_;
  netsim::Simulator sim_;
  sgx::Authority sgx_authority_;

  std::unique_ptr<core::OpenProject> relay_project_;
  std::unique_ptr<core::OpenProject> authority_project_;
  std::unique_ptr<core::OpenProject> client_project_;
  sgx::Vendor volunteer_vendor_{"curious-volunteer"};

  std::vector<std::unique_ptr<core::EnclaveNode>> authorities_;
  std::vector<std::unique_ptr<core::EnclaveNode>> relays_;
  std::vector<std::unique_ptr<core::EnclaveNode>> clients_;
  std::unique_ptr<DestinationServer> destination_;
  ChordRing ring_;
  size_t evil_count_ = 0;
};

}  // namespace tenet::tor
