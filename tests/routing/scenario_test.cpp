// Integration tests: the full Figure 2 deployment over the simulator.
#include "routing/scenario.h"

#include <gtest/gtest.h>

#include "sgx/adversary.h"
#include "test_seed.h"

namespace tenet::routing {
namespace {

ScenarioConfig small_sgx() {
  ScenarioConfig cfg;
  cfg.n_ases = 8;
  cfg.seed = 42;
  cfg.use_sgx = true;
  return cfg;
}

TEST(RoutingScenario, SgxEndToEndProducesCorrectRoutes) {
  const ScenarioResult result = run_routing_scenario(small_sgx());

  // Every AS received its table, and it matches a direct computation.
  const ComputationResult expected = BgpComputation::compute(result.policies);
  for (const auto& [asn, table] : result.received_tables) {
    const auto it = expected.tables.find(asn);
    ASSERT_NE(it, expected.tables.end());
    ASSERT_EQ(table.size(), it->second.size()) << "AS " << asn;
    for (const auto& [prefix, route] : table) {
      EXPECT_EQ(route.as_path, it->second.at(prefix).as_path)
          << "AS " << asn << " prefix " << prefix;
    }
  }
  // And the distributed result satisfies the stability invariants.
  std::map<AsNumber, RoutingTable> tables = result.received_tables;
  EXPECT_NO_THROW(ReferenceBgp::check_stable(result.policies, tables));
}

TEST(RoutingScenario, AttestationCountMatchesTable3Formula) {
  // Table 3: inter-domain routing needs (number of AS controllers)
  // remote attestations.
  for (size_t n : {4u, 8u, 12u}) {
    ScenarioConfig cfg = small_sgx();
    cfg.n_ases = n;
    const ScenarioResult result = run_routing_scenario(cfg);
    EXPECT_EQ(result.attestations, n) << "n=" << n;
  }
}

TEST(RoutingScenario, NativeBaselineProducesSameRoutes) {
  ScenarioConfig sgx_cfg = small_sgx();
  ScenarioConfig native_cfg = sgx_cfg;
  native_cfg.use_sgx = false;

  const ScenarioResult with_sgx = run_routing_scenario(sgx_cfg);
  const ScenarioResult native = run_routing_scenario(native_cfg);

  ASSERT_EQ(with_sgx.received_tables.size(), native.received_tables.size());
  for (const auto& [asn, table] : with_sgx.received_tables) {
    const auto& ntable = native.received_tables.at(asn);
    ASSERT_EQ(table.size(), ntable.size());
    for (const auto& [prefix, route] : table) {
      EXPECT_EQ(route.as_path, ntable.at(prefix).as_path);
    }
  }
  EXPECT_EQ(native.attestations, 0u);
}

TEST(RoutingScenario, SgxCostsMoreButModestly) {
  // Table 4's shape: the SGX deployment consumes more normal instructions
  // than native (82% more for the controller in the paper) — more, but
  // within a small factor, not orders of magnitude.
  ScenarioConfig sgx_cfg = small_sgx();
  ScenarioConfig native_cfg = sgx_cfg;
  native_cfg.use_sgx = false;

  const ScenarioResult with_sgx = run_routing_scenario(sgx_cfg);
  const ScenarioResult native = run_routing_scenario(native_cfg);

  EXPECT_GT(with_sgx.controller_steady.normal, native.controller_steady.normal);
  EXPECT_LT(with_sgx.controller_steady.normal,
            6 * native.controller_steady.normal);
  EXPECT_GT(with_sgx.controller_steady.sgx_user, 0u);
  EXPECT_EQ(native.controller_steady.sgx_user, 0u);

  const auto sgx_as = with_sgx.as_steady_avg();
  const auto nat_as = native.as_steady_avg();
  EXPECT_GT(sgx_as.normal, nat_as.normal);
}

TEST(RoutingScenario, PolicyBytesNeverOnWireWithSgx) {
  // The privacy property §3.1 is about: with SGX, policies cross the
  // network only inside authenticated ciphertext. Natively they are
  // plaintext. We wiretap everything and grep for a policy serialization.
  for (const bool use_sgx : {true, false}) {
    ScenarioConfig cfg = small_sgx();
    cfg.use_sgx = use_sgx;
    RoutingDeployment dep(cfg);

    std::vector<crypto::Bytes> wire;
    dep.sim().set_wiretap([&wire](const netsim::Message& m) {
      wire.push_back(m.payload);
    });
    dep.run_attestation_phase();
    dep.run_routing_phase();

    size_t policy_sightings = 0;
    for (const auto& [asn, policy] : dep.policies()) {
      const crypto::Bytes needle = policy.serialize();
      for (const crypto::Bytes& payload : wire) {
        if (std::search(payload.begin(), payload.end(), needle.begin(),
                        needle.end()) != payload.end()) {
          ++policy_sightings;
        }
      }
    }
    if (use_sgx) {
      EXPECT_EQ(policy_sightings, 0u) << "policy leaked to the wire";
    } else {
      EXPECT_GT(policy_sightings, 0u) << "baseline should be plaintext";
    }
  }
}

// The agreement workflow: one party's registration is not agreement,
// both parties see the verdict, a false predicate reads kViolated, and a
// third AS cannot probe it. Registrations live on the controller an AS
// talks to, so `front` names it, and the two parties and the third AS are
// picked among the ASes one controller fronts.
template <typename Front>
void check_verification_workflow(RoutingDeployment& dep, Front front) {
  // Find a pair (a, b) where b's chosen route for prefix a goes via a
  // (the "promise kept" case) by computing ground truth.
  const ComputationResult truth = BgpComputation::compute(dep.policies());
  AsNumber a = 0, b = 0;
  for (const auto& [asn, table] : truth.tables) {
    for (const auto& [prefix, route] : table) {
      if (route.path_length() == 1 && front(route.next_hop()) == front(asn)) {
        a = route.next_hop();
        b = asn;
        break;
      }
    }
    if (a != 0) break;
  }
  ASSERT_NE(a, 0u);

  const Predicate promise = Predicate::most_preferred_via(b, a, a);

  // Not yet agreed: only A registered.
  dep.register_predicate(a, 1, promise);
  EXPECT_EQ(dep.request_verification(a, 1), VerifyStatus::kNotAgreed);

  // Both registered: verification runs and the promise holds.
  dep.register_predicate(b, 1, promise);
  EXPECT_EQ(dep.request_verification(a, 1), VerifyStatus::kHolds);
  EXPECT_EQ(dep.request_verification(b, 1), VerifyStatus::kHolds);

  // A predicate that is false evaluates to kViolated (promise broken).
  const Predicate broken = Predicate::lnot(promise);
  dep.register_predicate(a, 2, broken);
  dep.register_predicate(b, 2, broken);
  EXPECT_EQ(dep.request_verification(a, 2), VerifyStatus::kViolated);

  // A third AS (not a party) cannot probe the agreement.
  AsNumber c = 0;
  for (const auto& [asn, p] : dep.policies()) {
    if (asn != a && asn != b && front(asn) == front(a)) {
      c = asn;
      break;
    }
  }
  ASSERT_NE(c, 0u);
  EXPECT_EQ(dep.request_verification(c, 1), VerifyStatus::kNotAParty);
}

TEST(RoutingScenario, VerificationWorkflow) {
  ScenarioConfig cfg = small_sgx();
  RoutingDeployment dep(cfg);
  dep.run_attestation_phase();
  dep.run_routing_phase();
  check_verification_workflow(dep, [](AsNumber) { return 0u; });
}

TEST(RoutingScenario, ShardedVerificationWorkflow) {
  // Three controller shards: the parties' shard answers from the tables
  // it assembled from every shard's partial rows. Twelve ASes, so one
  // shard fronts both parties and a third AS.
  ScenarioConfig cfg = small_sgx();
  cfg.n_ases = 12;
  cfg.shards = 3;
  RoutingDeployment dep(cfg);
  dep.run_attestation_phase();
  dep.run_routing_phase();
  check_verification_workflow(
      dep, [&dep](AsNumber asn) { return dep.shard_of_as(asn); });
}

// Twelve robust ASes on three controller shards: after a kill or a heal
// the ASes re-attest and re-submit on their own.
ScenarioConfig three_robust_shards() {
  ScenarioConfig cfg = small_sgx();
  cfg.n_ases = 12;
  cfg.shards = 3;
  cfg.robust = true;
  return cfg;
}

// Both parties register `p` under `pred_id` on the shard fronting them.
void agree(RoutingDeployment& dep, uint32_t pred_id, const Predicate& p) {
  for (const AsNumber party : p.parties()) {
    dep.register_predicate(party, pred_id, p);
  }
}

VerifyStatus truth_of(const Predicate& p, const ComputationResult& truth) {
  return p.evaluate(truth) ? VerifyStatus::kHolds : VerifyStatus::kViolated;
}

TEST(RoutingScenario, ShardedVerificationMergesCandidates) {
  // received_from reads every route an AS heard, which its shard merges
  // from its own slice and the other shards' partial rows. The slice
  // partition is round-robin by rank over the sorted policy set, so with
  // all three shards live the origin at rank i is computed by shard i % 3:
  // the holding predicate names a prefix another shard computes.
  RoutingDeployment dep(three_robust_shards());
  dep.run_attestation_phase();
  dep.run_routing_phase();
  const ComputationResult truth = BgpComputation::compute(dep.policies());
  std::map<Prefix, uint32_t> computed_by;
  uint32_t rank = 0;
  for (const auto& [asn, policy] : dep.policies()) {
    for (const Prefix p : policy.prefixes) computed_by[p] = rank % 3;
    ++rank;
  }

  AsNumber b = 0, a = 0;
  Prefix heard = 0;
  for (const auto& [asn, per_prefix] : truth.candidates) {
    const uint32_t front = dep.shard_of_as(asn);
    for (const auto& [prefix, cands] : per_prefix) {
      for (const Route& r : cands) {
        if (b == 0 && r.next_hop() != 0 &&
            dep.shard_of_as(r.next_hop()) == front &&
            computed_by.at(prefix) != front) {
          b = asn;
          a = r.next_hop();
          heard = prefix;
        }
      }
    }
  }
  ASSERT_NE(b, 0u) << "no co-fronted pair hears a remotely computed prefix";
  const Predicate holds = Predicate::received_from(b, a, heard);
  ASSERT_EQ(truth_of(holds, truth), VerifyStatus::kHolds);

  // The same pair over a prefix b never hears from a.
  std::optional<Predicate> violated;
  for (const auto& [prefix, origin] : computed_by) {
    const Predicate p = Predicate::received_from(b, a, prefix);
    if (truth_of(p, truth) == VerifyStatus::kViolated) {
      violated = p;
      break;
    }
  }
  ASSERT_TRUE(violated.has_value());

  agree(dep, 1, holds);
  agree(dep, 2, *violated);
  const auto check = [&](const char* when) {
    for (const AsNumber party : {a, b}) {
      EXPECT_EQ(dep.request_verification(party, 1), VerifyStatus::kHolds)
          << when << ", asked by AS " << party;
      EXPECT_EQ(dep.request_verification(party, 2), VerifyStatus::kViolated)
          << when << ", asked by AS " << party;
    }
  };
  check("settled");

  // Kill and heal a shard fronting neither party: the partition shifts
  // twice, the parties' shard re-merges, and the verdicts stand.
  const uint32_t front = dep.shard_of_as(b);
  const size_t victim = front == 1 ? 2 : 1;
  ASSERT_TRUE(dep.kill_shard(victim));
  dep.sim().run();
  check("after the kill");
  ASSERT_TRUE(dep.heal_shard(victim));
  dep.sim().run();
  check("after the heal");
}

TEST(RoutingScenario, ShardedVerificationIsNotReadyWhileAPassIsPending) {
  // A shard answers from the inputs of its last complete distribution
  // pass. A heal leaves every survivor's pass waiting for the rejoined
  // shard's partial rows, so a request that lands then reads kNotReady.
  // Once the group is quiet, the verdict reflects the local-pref change
  // submitted in the same window.
  RoutingDeployment dep(three_robust_shards());
  dep.run_attestation_phase();
  dep.run_routing_phase();
  const std::map<AsNumber, RoutingPolicy>& policies = dep.policies();
  const ComputationResult truth = BgpComputation::compute(policies);

  // An AS that hears a losing offer for some prefix from a neighbor on its
  // own shard, where raising that neighbor's local pref to 99 makes the
  // offer win (ground truth of the updated policy set).
  AsNumber who = 0, favorite = 0;
  Prefix prefix = 0;
  for (const auto& [asn, per_prefix] : truth.candidates) {
    for (const auto& [p, cands] : per_prefix) {
      const Route* chosen = truth.route_of(asn, p);
      for (const Route& c : cands) {
        if (who != 0 || chosen == nullptr || c.next_hop() == 0 ||
            c.next_hop() == chosen->next_hop() ||
            dep.shard_of_as(c.next_hop()) != dep.shard_of_as(asn)) {
          continue;
        }
        std::map<AsNumber, RoutingPolicy> updated = policies;
        updated.at(asn).local_pref[c.next_hop()] = 99;
        const Predicate flip =
            Predicate::most_preferred_via(asn, c.next_hop(), p);
        if (truth_of(flip, BgpComputation::compute(updated)) ==
            VerifyStatus::kHolds) {
          who = asn;
          favorite = c.next_hop();
          prefix = p;
        }
      }
    }
  }
  ASSERT_NE(who, 0u) << "no co-fronted decision a local pref can flip";
  const Predicate promise =
      Predicate::most_preferred_via(who, favorite, prefix);
  ASSERT_EQ(truth_of(promise, truth), VerifyStatus::kViolated);

  agree(dep, 1, promise);
  EXPECT_EQ(dep.request_verification(who, 1), VerifyStatus::kViolated);

  const uint32_t front = dep.shard_of_as(who);
  const size_t victim = front == 1 ? 2 : 1;
  ASSERT_TRUE(dep.kill_shard(victim));
  dep.sim().run();
  EXPECT_EQ(dep.request_verification(who, 1), VerifyStatus::kViolated);

  crypto::Bytes arg;
  crypto::append_u32(arg, favorite);
  crypto::append_u32(arg, 99);
  (void)dep.as_node(who)->control(kCtlUpdateLocalPref, arg);
  (void)dep.as_node(who)->control(kCtlSubmitPolicy, {});
  ASSERT_TRUE(dep.heal_shard(victim));
  EXPECT_EQ(dep.request_verification(who, 1), VerifyStatus::kNotReady);

  // request_verification ran the group until quiet.
  EXPECT_EQ(dep.request_verification(who, 1), VerifyStatus::kHolds);
  EXPECT_EQ(dep.request_verification(favorite, 1), VerifyStatus::kHolds);
}

TEST(RoutingScenario, MismatchedRegistrationsNeverAgree) {
  ScenarioConfig cfg = small_sgx();
  cfg.n_ases = 4;
  RoutingDeployment dep(cfg);
  dep.run_attestation_phase();
  dep.run_routing_phase();

  const auto& policies = dep.policies();
  auto it = policies.begin();
  const AsNumber a = (it++)->first;
  const AsNumber b = it->first;

  dep.register_predicate(a, 5, Predicate::most_preferred_via(b, a, a));
  dep.register_predicate(b, 5, Predicate::most_preferred_via(b, a, b));
  EXPECT_EQ(dep.request_verification(a, 5), VerifyStatus::kNotAgreed);
}

TEST(RoutingScenario, PatchedControllerRejectedByAses) {
  // The core privacy guarantee: AS-local controllers refuse to upload
  // policies to anything but the community-verified controller build.
  ScenarioConfig cfg = small_sgx();
  cfg.n_ases = 3;
  RoutingDeployment dep(cfg);

  // A rogue "controller" node running a patched build joins the network.
  core::OpenProject rogue_project(
      "rogue-controller", "patched controller that logs policies\n", nullptr);
  const sgx::Authority* auth = nullptr;  // filled via the deployment below
  (void)auth;
  // Connect an AS to the rogue controller: attestation must fail, so the
  // AS never becomes attested and kCtlSubmitPolicy would throw.
  core::EnclaveNode* as0 = nullptr;
  for (const auto& [asn, p] : dep.policies()) {
    as0 = dep.as_node(asn);
    break;
  }
  ASSERT_NE(as0, nullptr);

  // Point the AS at a node that is not the genuine controller: we reuse
  // another AS node as the "rogue" endpoint (its measurement differs from
  // the controller project's, so the challenger rejects the quote).
  core::EnclaveNode* other = nullptr;
  for (const auto& [asn, p] : dep.policies()) {
    if (dep.as_node(asn) != as0) {
      other = dep.as_node(asn);
      break;
    }
  }
  ASSERT_NE(other, nullptr);

  crypto::Bytes arg;
  crypto::append_u32(arg, other->id());
  (void)as0->control(kCtlConnectController, arg);
  dep.sim().run();
  EXPECT_EQ(as0->query(core::kQueryAttestedPeerCount), 0u);
}

TEST(RoutingScenario, ScalesAcrossSizes) {
  // Figure 3 mechanics: controller cycles grow with AS count, SGX stays
  // a bounded factor above native at every size.
  ScenarioConfig cfg;
  cfg.seed = 7;
  double prev_sgx_cycles = 0;
  for (size_t n : {5u, 10u, 15u}) {
    cfg.n_ases = n;
    cfg.use_sgx = true;
    const ScenarioResult s = run_routing_scenario(cfg);
    cfg.use_sgx = false;
    const ScenarioResult nat = run_routing_scenario(cfg);

    sgx::CostModel model;
    const double sgx_cycles = model.cycles_of(s.controller_steady);
    const double native_cycles = model.cycles_of(nat.controller_steady);
    EXPECT_GT(sgx_cycles, native_cycles) << "n=" << n;
    EXPECT_GT(sgx_cycles, prev_sgx_cycles) << "n=" << n;
    prev_sgx_cycles = sgx_cycles;
  }
}

class ScenarioSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScenarioSeedSweep, SgxAndNativeAgreeOnEverySeed) {
  // Property over random topologies: the enclave deployment and the
  // native baseline always produce identical, stable routing tables.
  ScenarioConfig cfg;
  cfg.n_ases = 6;
  cfg.seed = GetParam();

  cfg.use_sgx = true;
  const ScenarioResult s = run_routing_scenario(cfg);
  cfg.use_sgx = false;
  const ScenarioResult n = run_routing_scenario(cfg);

  ASSERT_EQ(s.received_tables.size(), n.received_tables.size());
  for (const auto& [asn, table] : s.received_tables) {
    const auto& ntable = n.received_tables.at(asn);
    ASSERT_EQ(table.size(), ntable.size()) << "AS " << asn;
    for (const auto& [prefix, route] : table) {
      EXPECT_EQ(route.as_path, ntable.at(prefix).as_path)
          << "seed " << GetParam() << " AS " << asn << " prefix " << prefix;
    }
  }
  EXPECT_NO_THROW(ReferenceBgp::check_stable(s.policies, s.received_tables));
  EXPECT_EQ(s.attestations, cfg.n_ases);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ScenarioSeedSweep,
    ::testing::ValuesIn(test::seeds({11, 22, 33, 44, 55, 66})));

}  // namespace
}  // namespace tenet::routing
