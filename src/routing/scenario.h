// End-to-end scenario driver for the SDN inter-domain routing case study.
//
// Builds the full Figure 2 deployment (one inter-domain controller + one
// AS-local controller per AS) over the network simulator, runs the
// attestation phase, then the policy-submission/compute/distribute phase,
// and reports per-phase instruction counts. Powers the Table 3/Table 4/
// Figure 3 benches, the integration tests and the sdn_routing example.
#pragma once

#include <algorithm>
#include <memory>

#include "core/node.h"
#include "core/open_project.h"
#include "core/shard_group.h"
#include "routing/apps.h"

namespace tenet::routing {

struct ScenarioConfig {
  size_t n_ases = 30;      // the paper's Table 4 size
  uint64_t seed = 2015;
  bool use_sgx = true;     // false = native baseline (w/o SGX)
  double extra_peering_prob = 0.15;
  /// Opt every enclave app into fault recovery (attestation retry with
  /// backoff, re-handshake after controller restart). SGX only.
  bool robust = false;
  netsim::RetryPolicy retry;  // used when robust
  /// Inter-domain controller shard count (SGX only). 1 = the classic
  /// single-controller deployment, byte-identical to before sharding
  /// existed; >1 = a replicated shard group (DESIGN.md §14) with ASes
  /// partitioned across shards by ASN.
  size_t shards = 1;
  uint32_t shard_replication = 2;
};

struct ScenarioResult {
  /// Steady-state cost (post-attestation snapshot deltas, matching the
  /// paper's "exclude enclave initialization and remote attestation").
  sgx::CostModel::Snapshot controller_steady;
  std::vector<sgx::CostModel::Snapshot> as_steady;

  /// Attestation-phase cost and counts (Table 3).
  sgx::CostModel::Snapshot controller_attest;
  uint64_t attestations = 0;

  /// Each AS's own routing table as received from the controller.
  std::map<AsNumber, RoutingTable> received_tables;

  /// Ground truth for validation.
  std::map<AsNumber, RoutingPolicy> policies;

  double sim_seconds = 0;
  uint64_t messages = 0;

  [[nodiscard]] sgx::CostModel::Snapshot as_steady_avg() const;
};

/// Runs a complete scenario. Throws on any protocol failure (an AS not
/// receiving routes, computation not triggering, etc.).
ScenarioResult run_routing_scenario(const ScenarioConfig& config);

/// The deployment object itself, for tests that need to poke at nodes
/// (verification queries, adversarial ASes) between phases.
class RoutingDeployment {
 public:
  explicit RoutingDeployment(const ScenarioConfig& config);

  /// Phase 1 (SGX only): every AS attests the controller. No-op natively.
  void run_attestation_phase();
  /// Phase 2: submit policies; controller computes and distributes.
  void run_routing_phase();

  [[nodiscard]] netsim::Simulator& sim() { return sim_; }
  [[nodiscard]] size_t as_count() const { return as_sgx_.size() + as_native_.size(); }
  [[nodiscard]] const std::map<AsNumber, RoutingPolicy>& policies() const {
    return policies_;
  }

  /// Per-role cost snapshots (aggregated enclave+host for SGX nodes).
  [[nodiscard]] sgx::CostModel::Snapshot controller_cost() const;
  [[nodiscard]] sgx::CostModel::Snapshot as_cost(size_t index) const;

  /// The routing table AS `asn` received (queried from its node).
  [[nodiscard]] RoutingTable table_of(AsNumber asn);
  [[nodiscard]] bool as_has_routes(AsNumber asn);

  /// Verification workflow (SGX deployment only).
  void register_predicate(AsNumber asn, uint32_t pred_id, const Predicate& p);
  VerifyStatus request_verification(AsNumber asn, uint32_t pred_id);

  [[nodiscard]] uint64_t total_attestations();
  [[nodiscard]] core::EnclaveNode* controller_node() {
    return controller_sgx_.get();
  }
  [[nodiscard]] core::EnclaveNode* as_node(AsNumber asn);

  /// Fault drill (SGX only): checkpoint the controller, inject a real EPC
  /// fault (the enclave dies), restart it from its image and restore the
  /// sealed checkpoint. ASes re-attest and re-submit on their next secure
  /// send. Returns true if the checkpoint was restored.
  bool crash_and_recover_controller();

  // --- Shard-group deployment (config_.shards > 1, SGX only) ---

  [[nodiscard]] size_t shard_count() const {
    return config_.use_sgx ? std::max<size_t>(1, config_.shards) : 1;
  }
  /// Controller node hosting shard `i` (0 = controller_node()).
  [[nodiscard]] core::EnclaveNode* shard_node(size_t i);
  /// Untrusted key->shard router (valid once constructed with shards > 1).
  [[nodiscard]] core::ShardRouter& router() { return router_; }
  /// Which shard currently fronts `asn` per the router.
  [[nodiscard]] uint32_t shard_of_as(AsNumber asn) const;

  /// Kills shard `i` mid-run (checkpoint + EPC fault — the enclave dies),
  /// tells the router and the surviving shards, and re-points the dead
  /// shard's ASes at the successor-order fallback shard (they re-attest
  /// and re-submit automatically when robust). Returns false unsharded.
  bool kill_shard(size_t i);
  /// Restarts shard `i` from its image + sealed checkpoint, reissues the
  /// shard config, starts the attested rejoin, and points its ASes back.
  bool heal_shard(size_t i);

 private:
  void configure_shards();
  /// Shard `i`'s serialized core::ShardConfig.
  [[nodiscard]] crypto::Bytes shard_config(size_t i) const;
  /// Tells the router and every other shard that shard `i` is up or down
  /// (untrusted liveness hints), then re-points the ASes whose front moved.
  void set_shard_reachable(size_t i, bool up);
  /// Re-points every AS whose routed shard changed (after a kill or heal)
  /// at its new front-end; robust ASes re-attest and re-submit on their own.
  void repoint_ases();
  void control_as(AsNumber asn, uint32_t subfn, crypto::BytesView payload);
  crypto::Bytes query_as(AsNumber asn, uint32_t subfn,
                         crypto::BytesView payload = {});

  ScenarioConfig config_;
  netsim::Simulator sim_;
  sgx::Authority authority_;
  std::map<AsNumber, RoutingPolicy> policies_;
  std::vector<AsNumber> as_order_;  // index -> asn

  // SGX deployment.
  std::unique_ptr<core::OpenProject> controller_project_;
  std::unique_ptr<core::OpenProject> as_project_;
  std::unique_ptr<core::EnclaveNode> controller_sgx_;
  std::vector<std::unique_ptr<core::EnclaveNode>> extra_shards_;  // shards 1..
  core::ShardRouter router_;
  std::vector<core::ShardMember> members_;
  std::map<AsNumber, uint32_t> as_home_;  // asn -> shard it was pointed at
  std::vector<std::unique_ptr<core::EnclaveNode>> as_sgx_;
  std::map<AsNumber, core::EnclaveNode*> sgx_by_asn_;

  // Native deployment.
  std::unique_ptr<core::NativeNode> controller_native_;
  std::vector<std::unique_ptr<core::NativeNode>> as_native_;
  std::map<AsNumber, core::NativeNode*> native_by_asn_;
};

}  // namespace tenet::routing
