// Live policy updates: an AS reconfigures its local preference at runtime,
// resubmits over the attested channel, and the controller recomputes and
// redistributes fresh routes — the "fast convergence" property SDN-based
// inter-domain routing promises (§3.1's motivation).
#include <gtest/gtest.h>

#include "routing/scenario.h"

namespace tenet::routing {
namespace {

class LiveUpdateDeployment {
 public:
  LiveUpdateDeployment() : dep_(make_config()) {
    dep_.run_attestation_phase();
    dep_.run_routing_phase();
  }

  static ScenarioConfig make_config() {
    ScenarioConfig cfg;
    cfg.n_ases = 10;
    cfg.seed = 424242;
    cfg.use_sgx = true;
    return cfg;
  }

  RoutingDeployment dep_;
};

TEST(LiveUpdate, LocalPrefChangePropagatesThroughController) {
  LiveUpdateDeployment world;
  RoutingDeployment& dep = world.dep_;

  // Find an AS with two neighbors offering routes in the same class to
  // some prefix (so local-pref alone can flip the decision).
  const ComputationResult before = BgpComputation::compute(dep.policies());
  AsNumber who = 0;
  Prefix prefix = 0;
  AsNumber new_favorite = 0;
  for (const auto& [asn, per_prefix] : before.candidates) {
    for (const auto& [p, cands] : per_prefix) {
      const Route* chosen = before.route_of(asn, p);
      if (chosen == nullptr) continue;
      for (const Route& c : cands) {
        if (c.next_hop() != chosen->next_hop() &&
            c.learned_from == chosen->learned_from &&
            c.path_length() == chosen->path_length()) {
          who = asn;
          prefix = p;
          new_favorite = c.next_hop();
          break;
        }
      }
      if (who != 0) break;
    }
    if (who != 0) break;
  }
  ASSERT_NE(who, 0u) << "topology has no tie-breakable decision";

  const RoutingTable original = dep.table_of(who);
  ASSERT_TRUE(original.contains(prefix));
  ASSERT_NE(original.at(prefix).next_hop(), new_favorite);

  // Reconfigure: prefer `new_favorite` strongly, resubmit.
  core::EnclaveNode* node = dep.as_node(who);
  ASSERT_NE(node, nullptr);
  crypto::Bytes arg;
  crypto::append_u32(arg, new_favorite);
  crypto::append_u32(arg, 99);
  (void)node->control(kCtlUpdateLocalPref, arg);
  (void)node->control(kCtlSubmitPolicy, {});
  dep.sim().run();

  const RoutingTable updated = dep.table_of(who);
  ASSERT_TRUE(updated.contains(prefix));
  EXPECT_EQ(updated.at(prefix).next_hop(), new_favorite)
      << "controller did not apply the updated preference";

  // No additional attestations were needed for the update.
  EXPECT_EQ(dep.total_attestations(), LiveUpdateDeployment::make_config().n_ases);
}

TEST(LiveUpdate, OtherAsesReceiveRecomputedRoutes) {
  LiveUpdateDeployment world;
  RoutingDeployment& dep = world.dep_;

  // Any resubmission triggers a full recompute; every AS's table must
  // still satisfy the stability invariants afterwards.
  const AsNumber first = dep.policies().begin()->first;
  core::EnclaveNode* node = dep.as_node(first);
  ASSERT_NE(node, nullptr);
  (void)node->control(kCtlSubmitPolicy, {});
  dep.sim().run();

  std::map<AsNumber, RoutingTable> tables;
  for (const auto& [asn, p] : dep.policies()) tables[asn] = dep.table_of(asn);
  EXPECT_NO_THROW(ReferenceBgp::check_stable(dep.policies(), tables));
}

TEST(LiveUpdate, UpdateForUnknownNeighborIgnored) {
  LiveUpdateDeployment world;
  RoutingDeployment& dep = world.dep_;
  const AsNumber first = dep.policies().begin()->first;
  core::EnclaveNode* node = dep.as_node(first);
  ASSERT_NE(node, nullptr);

  const RoutingTable before = dep.table_of(first);
  crypto::Bytes arg;
  crypto::append_u32(arg, 0xdeadbeef);  // not a neighbor
  crypto::append_u32(arg, 99);
  (void)node->control(kCtlUpdateLocalPref, arg);
  (void)node->control(kCtlSubmitPolicy, {});
  dep.sim().run();
  const RoutingTable after = dep.table_of(first);
  ASSERT_EQ(before.size(), after.size());
  for (const auto& [prefix, route] : before) {
    EXPECT_EQ(route.as_path, after.at(prefix).as_path);
  }
}

}  // namespace
}  // namespace tenet::routing
