#include "routing/scenario.h"

#include <stdexcept>

namespace tenet::routing {

namespace {

constexpr std::string_view kControllerSource =
    "tenet sdn inter-domain controller v1\n"
    "community-inspected: forwards no policy bytes to any output other\n"
    "than per-AS route advertisements over attested secure channels\n";

constexpr std::string_view kAsLocalSource =
    "tenet as-local controller v1\n"
    "holds the AS policy; releases it only to an attested controller\n";

sgx::CostModel::Snapshot add(const sgx::CostModel::Snapshot& a,
                             const sgx::CostModel::Snapshot& b) {
  return {a.sgx_user + b.sgx_user, a.sgx_priv + b.sgx_priv,
          a.normal + b.normal};
}

sgx::CostModel::Snapshot sub(const sgx::CostModel::Snapshot& a,
                             const sgx::CostModel::Snapshot& b) {
  return {a.sgx_user - b.sgx_user, a.sgx_priv - b.sgx_priv,
          a.normal - b.normal};
}

}  // namespace

sgx::CostModel::Snapshot ScenarioResult::as_steady_avg() const {
  sgx::CostModel::Snapshot avg;
  if (as_steady.empty()) return avg;
  for (const auto& s : as_steady) avg = add(avg, s);
  avg.sgx_user /= as_steady.size();
  avg.sgx_priv /= as_steady.size();
  avg.normal /= as_steady.size();
  return avg;
}

RoutingDeployment::RoutingDeployment(const ScenarioConfig& config)
    : config_(config), sim_(config.seed) {
  // Pre-size for the AS topology and scale the run() safety cap with it
  // (tens-of-thousands-of-ASes graphs exceed the paper-scale default).
  sim_.reserve_nodes(config.n_ases + 4 + config.shards);
  sim_.set_run_cap(std::max<size_t>(1'000'000, 2'000 * config.n_ases));
  crypto::Drbg rng = crypto::Drbg::from_label(config.seed, "routing.scenario");
  const AsGraph graph =
      AsGraph::random(rng, config.n_ases, config.extra_peering_prob);
  policies_ = RoutingPolicy::from_graph(graph, rng);
  for (const auto& [asn, p] : policies_) as_order_.push_back(asn);

  if (config.use_sgx) {
    // Build the two open projects. Measurements are interdependent only
    // through the attestation configs, which are created after both
    // projects exist.
    controller_project_ = std::make_unique<core::OpenProject>(
        "sdn-inter-domain-controller", std::string(kControllerSource),
        nullptr);
    as_project_ = std::make_unique<core::OpenProject>(
        "sdn-as-local-controller", std::string(kAsLocalSource), nullptr);

    // Controller: mutual attestation, verifying AS-local challengers.
    sgx::AttestationConfig controller_cfg = as_project_->policy(/*mutual=*/true);
    if (config.shards > 1) {
      // Shard-group deployments: controllers also attest each other for
      // ring replication, so sibling controllers are acceptable peers too.
      // Two acceptable builds come from two different foundations, so the
      // single-signer pin cannot express the policy — the measurement list
      // (which subsumes it) is the gate.
      controller_cfg.expect.also_accept(controller_project_->measurement());
      controller_cfg.expect.mr_signer.reset();
    }
    // AS-local: mutual attestation, verifying the controller target.
    sgx::AttestationConfig as_cfg = controller_project_->policy(/*mutual=*/true);

    const sgx::Authority* auth = &authority_;
    const size_t n = config.n_ases;
    const bool robust = config.robust;
    const netsim::RetryPolicy retry = config.retry;

    sgx::EnclaveImage controller_image = controller_project_->build();
    controller_image.factory = [auth, controller_cfg, n, robust, retry] {
      auto app = std::make_unique<InterDomainControllerApp>(*auth,
                                                            controller_cfg, n);
      if (robust) app->enable_recovery(retry);
      return app;
    };
    controller_sgx_ = std::make_unique<core::EnclaveNode>(
        sim_, authority_, "inter-domain-controller",
        controller_project_->foundation(), controller_image);
    controller_sgx_->start();
    for (size_t i = 1; i < config.shards; ++i) {
      auto node = std::make_unique<core::EnclaveNode>(
          sim_, authority_, "inter-domain-controller-" + std::to_string(i),
          controller_project_->foundation(), controller_image);
      node->start();
      extra_shards_.push_back(std::move(node));
    }
    if (config.shards > 1) configure_shards();

    for (const auto& [asn, policy] : policies_) {
      sgx::EnclaveImage as_image = as_project_->build();
      const RoutingPolicy p = policy;
      as_image.factory = [auth, as_cfg, p, robust, retry] {
        auto app = std::make_unique<AsLocalControllerApp>(*auth, as_cfg, p);
        if (robust) app->enable_recovery(retry);
        return app;
      };
      auto node = std::make_unique<core::EnclaveNode>(
          sim_, authority_, "as-" + std::to_string(asn),
          as_project_->foundation(), as_image);
      node->start();
      sgx_by_asn_[asn] = node.get();
      as_sgx_.push_back(std::move(node));
    }
  } else {
    controller_native_ = std::make_unique<core::NativeNode>(
        sim_, "inter-domain-controller",
        std::make_unique<NativeInterDomainController>(config.n_ases));
    controller_native_->start();
    for (const auto& [asn, policy] : policies_) {
      auto node = std::make_unique<core::NativeNode>(
          sim_, "as-" + std::to_string(asn),
          std::make_unique<NativeAsController>(policy));
      node->start();
      native_by_asn_[asn] = node.get();
      as_native_.push_back(std::move(node));
    }
  }
}

void RoutingDeployment::control_as(AsNumber asn, uint32_t subfn,
                                   crypto::BytesView payload) {
  (void)query_as(asn, subfn, payload);
}

crypto::Bytes RoutingDeployment::query_as(AsNumber asn, uint32_t subfn,
                                          crypto::BytesView payload) {
  if (config_.use_sgx) {
    const auto it = sgx_by_asn_.find(asn);
    if (it == sgx_by_asn_.end()) throw std::invalid_argument("unknown ASN");
    return it->second->control(subfn, payload);
  }
  const auto it = native_by_asn_.find(asn);
  if (it == native_by_asn_.end()) throw std::invalid_argument("unknown ASN");
  return it->second->control(subfn, payload);
}

void RoutingDeployment::run_attestation_phase() {
  const netsim::NodeId controller_id = config_.use_sgx
                                           ? controller_sgx_->id()
                                           : controller_native_->id();
  for (const AsNumber asn : as_order_) {
    crypto::Bytes arg;
    if (shard_count() > 1) {
      const uint32_t home = router_.route_shard(asn);
      as_home_[asn] = home;
      crypto::append_u32(arg, router_.map().node(home));
    } else {
      crypto::append_u32(arg, controller_id);
    }
    control_as(asn, kCtlConnectController, arg);
  }
  sim_.run();
  if (config_.use_sgx) {
    // Every AS must have completed attestation.
    for (const AsNumber asn : as_order_) {
      if (sgx_by_asn_.at(asn)->query(core::kQueryAttestedPeerCount) != 1) {
        throw std::runtime_error("attestation failed for AS " +
                                 std::to_string(asn));
      }
    }
  }
}

void RoutingDeployment::run_routing_phase() {
  for (const AsNumber asn : as_order_) {
    control_as(asn, kCtlSubmitPolicy, {});
  }
  sim_.run();
  for (const AsNumber asn : as_order_) {
    if (!as_has_routes(asn)) {
      throw std::runtime_error("AS " + std::to_string(asn) +
                               " did not receive routes");
    }
  }
}

sgx::CostModel::Snapshot RoutingDeployment::controller_cost() const {
  if (config_.use_sgx) return controller_sgx_->cost_snapshot();
  // NativeNode::cost is non-const accessor; go through the pointer.
  return controller_native_->cost().snapshot();
}

sgx::CostModel::Snapshot RoutingDeployment::as_cost(size_t index) const {
  const AsNumber asn = as_order_.at(index);
  if (config_.use_sgx) return sgx_by_asn_.at(asn)->cost_snapshot();
  return native_by_asn_.at(asn)->cost().snapshot();
}

RoutingTable RoutingDeployment::table_of(AsNumber asn) {
  return decode_routing_table(query_as(asn, kCtlGetOwnTable));
}

bool RoutingDeployment::as_has_routes(AsNumber asn) {
  const crypto::Bytes out = query_as(asn, kCtlHasRoutes);
  return !out.empty() && out[0] == 1;
}

void RoutingDeployment::register_predicate(AsNumber asn, uint32_t pred_id,
                                           const Predicate& p) {
  // The host argument is the message body the AS forwards.
  const crypto::Bytes msg = encode_register_predicate(pred_id, p);
  control_as(asn, kCtlRegisterPredicate, message_body(msg));
  sim_.run();
}

VerifyStatus RoutingDeployment::request_verification(AsNumber asn,
                                                     uint32_t pred_id) {
  const crypto::Bytes msg = encode_verify_request(pred_id);
  control_as(asn, kCtlRequestVerify, message_body(msg));
  sim_.run();
  // Empty until the AS has stored a response that decoded.
  const crypto::Bytes verdict = query_as(asn, kCtlLastVerdict);
  if (verdict.empty() || decode_verify_response(verdict).pred_id != pred_id) {
    throw std::runtime_error("no verification verdict received");
  }
  return decode_verify_response(verdict).status;
}

uint64_t RoutingDeployment::total_attestations() {
  if (!config_.use_sgx) return 0;
  uint64_t n = 0;
  for (auto& node : as_sgx_) {
    n += node->query(core::kQueryAttestationsInitiated);
  }
  return n;
}

bool RoutingDeployment::crash_and_recover_controller() {
  if (!config_.use_sgx || !controller_sgx_) return false;
  core::EnclaveNode& node = *controller_sgx_;
  node.checkpoint();
  node.inject_fault();
  return node.recover();
}

core::EnclaveNode* RoutingDeployment::as_node(AsNumber asn) {
  const auto it = sgx_by_asn_.find(asn);
  return it != sgx_by_asn_.end() ? it->second : nullptr;
}

// ---------------------------------------------------------------------------
// Shard-group deployment
// ---------------------------------------------------------------------------

core::EnclaveNode* RoutingDeployment::shard_node(size_t i) {
  if (i == 0) return controller_sgx_.get();
  return i - 1 < extra_shards_.size() ? extra_shards_[i - 1].get() : nullptr;
}

uint32_t RoutingDeployment::shard_of_as(AsNumber asn) const {
  return router_.route_shard(asn);
}

void RoutingDeployment::configure_shards() {
  members_.clear();
  members_.push_back(core::ShardMember{0, controller_sgx_->id()});
  for (size_t i = 0; i < extra_shards_.size(); ++i) {
    members_.push_back(core::ShardMember{static_cast<uint32_t>(i + 1),
                                         extra_shards_[i]->id()});
  }
  router_ = core::ShardRouter(core::ShardMap(members_));
  for (size_t i = 0; i < shard_count(); ++i) {
    shard_node(i)->control(kCtlConfigureShard, shard_config(i));
  }
}

crypto::Bytes RoutingDeployment::shard_config(size_t i) const {
  core::ShardConfig cfg;
  cfg.self = static_cast<uint32_t>(i);
  cfg.replication = config_.shard_replication;
  cfg.members = members_;
  return cfg.serialize();
}

void RoutingDeployment::set_shard_reachable(size_t i, bool up) {
  router_.set_down(static_cast<uint32_t>(i), !up);
  crypto::Bytes hint;
  crypto::append_u32(hint, static_cast<uint32_t>(i));
  hint.push_back(up ? 1 : 0);
  for (size_t s = 0; s < shard_count(); ++s) {
    if (s != i && !shard_node(s)->dead()) {
      shard_node(s)->control(kCtlShardReachable, hint);
    }
  }
  repoint_ases();
}

void RoutingDeployment::repoint_ases() {
  for (const AsNumber asn : as_order_) {
    const uint32_t now = router_.route_shard(asn);
    const auto home = as_home_.find(asn);
    if (home != as_home_.end() && home->second == now) continue;
    as_home_[asn] = now;
    crypto::Bytes arg;
    crypto::append_u32(arg, router_.map().node(now));
    control_as(asn, kCtlConnectController, arg);
  }
}

bool RoutingDeployment::kill_shard(size_t i) {
  if (shard_count() <= 1 || i >= shard_count()) return false;
  core::EnclaveNode& node = *shard_node(i);
  node.checkpoint();
  node.inject_fault();
  // Untrusted liveness hints: the router stops fronting the dead shard and
  // the survivors re-forward what they replicate on its behalf.
  set_shard_reachable(i, false);
  return true;
}

bool RoutingDeployment::heal_shard(size_t i) {
  if (shard_count() <= 1 || i >= shard_count()) return false;
  core::EnclaveNode& node = *shard_node(i);
  if (!node.recover()) return false;
  // Fresh enclave: re-issue the shard config (which replays the sealed
  // version vector the restore stashed), hint the members still down (a
  // fresh replica believes every member up until told), and start the
  // attested rejoin.
  node.control(kCtlConfigureShard, shard_config(i));
  for (size_t s = 0; s < shard_count(); ++s) {
    if (s == i || !router_.is_down(static_cast<uint32_t>(s))) continue;
    crypto::Bytes hint;
    crypto::append_u32(hint, static_cast<uint32_t>(s));
    hint.push_back(0);
    node.control(kCtlShardReachable, hint);
  }
  node.control(kCtlBeginShardJoin, {});
  set_shard_reachable(i, true);
  return true;
}

ScenarioResult run_routing_scenario(const ScenarioConfig& config) {
  RoutingDeployment dep(config);
  ScenarioResult result;
  result.policies = dep.policies();

  dep.run_attestation_phase();
  result.controller_attest = dep.controller_cost();
  result.attestations = dep.total_attestations();

  std::vector<sgx::CostModel::Snapshot> as_before;
  for (size_t i = 0; i < config.n_ases; ++i) as_before.push_back(dep.as_cost(i));
  const auto controller_before = dep.controller_cost();

  dep.run_routing_phase();

  result.controller_steady = sub(dep.controller_cost(), controller_before);
  for (size_t i = 0; i < config.n_ases; ++i) {
    result.as_steady.push_back(sub(dep.as_cost(i), as_before[i]));
  }
  for (const auto& [asn, policy] : result.policies) {
    result.received_tables[asn] = dep.table_of(asn);
  }
  result.sim_seconds = dep.sim().now();
  result.messages = dep.sim().total_messages_delivered();
  return result;
}

}  // namespace tenet::routing
