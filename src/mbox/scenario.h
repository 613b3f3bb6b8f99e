// End-to-end middlebox deployment: TLS client <-> chain of DPI
// middleboxes <-> TLS server, over the simulator. Drives §3.3's scenarios
// (bilateral agreement, unilateral enterprise outsourcing, unattested
// middleboxes) for the tests, the middlebox_dpi example and the Table 3 /
// micro benches.
#pragma once

#include "core/node.h"
#include "core/open_project.h"
#include "mbox/apps.h"

namespace tenet::mbox {

struct MboxScenarioConfig {
  size_t n_middleboxes = 1;
  std::vector<std::string> patterns = {"ATTACK"};
  MboxPolicy policy;
  uint64_t seed = 2015;
  /// When set, middlebox `rogue_index` runs a patched (unattestable)
  /// build — provisioning to it must fail.
  std::optional<size_t> rogue_index;
  /// Opt endpoints and middleboxes into fault recovery (attestation retry,
  /// re-handshake after a middlebox restart).
  bool robust = false;
  netsim::RetryPolicy retry;  // used when robust
  /// Serve every node's enclave transitions through switchless rings
  /// (DESIGN.md §10). Application output is byte-identical either way;
  /// only cost accounting and sgx.switchless.* telemetry change.
  bool switchless = false;
  sgx::SwitchlessConfig switchless_config;
};

class MboxDeployment {
 public:
  explicit MboxDeployment(const MboxScenarioConfig& config);

  [[nodiscard]] netsim::Simulator& sim() { return sim_; }
  [[nodiscard]] core::EnclaveNode& client_node() { return *client_; }
  [[nodiscard]] core::EnclaveNode& server_node() { return *server_; }
  [[nodiscard]] core::EnclaveNode& mbox_node(size_t i) { return *mboxes_.at(i); }

  /// Opens a TLS session through the whole chain and completes the
  /// handshake. Returns the session id.
  uint32_t open_session();
  [[nodiscard]] bool established(uint32_t sid);

  /// The client (or server) attests every middlebox in the chain and
  /// provisions the session keys.
  void provision_from_client(uint32_t sid);
  void provision_from_server(uint32_t sid);

  /// Sends application data client -> server (server echoes "ok:<data>").
  void send(uint32_t sid, std::string_view data);
  [[nodiscard]] std::vector<std::string> server_received(uint32_t sid);
  [[nodiscard]] std::vector<std::string> client_received(uint32_t sid);

  // Middlebox introspection.
  [[nodiscard]] uint64_t alerts(size_t mbox_index);
  [[nodiscard]] bool session_active(size_t mbox_index, uint32_t sid);
  [[nodiscard]] uint64_t opaque_forwarded(size_t mbox_index);
  [[nodiscard]] uint64_t blocked(size_t mbox_index);
  [[nodiscard]] uint64_t inspected(size_t mbox_index);

  /// Table 3 metric: attestations performed by the client endpoint.
  [[nodiscard]] uint64_t client_attestations();

  /// Fault drill: checkpoint middlebox `i`'s session routing, inject a
  /// real EPC fault, restart the enclave and restore the checkpoint. The
  /// recovered box forwards per fail-open/fail-closed policy until the
  /// endpoints re-provision. Returns true if the checkpoint was restored.
  bool crash_and_recover_mbox(size_t mbox_index);

 private:
  MboxScenarioConfig config_;
  netsim::Simulator sim_;
  sgx::Authority authority_;
  std::unique_ptr<core::OpenProject> mbox_project_;
  std::unique_ptr<core::OpenProject> endpoint_project_;
  std::unique_ptr<core::EnclaveNode> client_;
  std::unique_ptr<core::EnclaveNode> server_;
  std::vector<std::unique_ptr<core::EnclaveNode>> mboxes_;
};

/// Splits a concatenation of LV frames (kCtlReceived output).
std::vector<std::string> split_frames(crypto::BytesView wire);

}  // namespace tenet::mbox
