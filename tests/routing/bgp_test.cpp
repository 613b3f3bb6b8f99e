#include "routing/bgp.h"

#include <gtest/gtest.h>

#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "crypto/work.h"
#include "sgx/cost_model.h"
#include "test_seed.h"

namespace tenet::routing {
namespace {

std::map<AsNumber, RoutingPolicy> policies_of(const AsGraph& g,
                                              uint64_t seed = 1) {
  crypto::Drbg rng = crypto::Drbg::from_label(seed, "bgp.test");
  return RoutingPolicy::from_graph(g, rng);
}

/// 1 --customer-of--> 2 --customer-of--> 3 (a simple chain).
AsGraph chain3() {
  AsGraph g;
  g.add_customer_provider(1, 2);
  g.add_customer_provider(2, 3);
  return g;
}

TEST(Route, DecisionProcessOrdering) {
  Route customer, peer, provider;
  customer.pref = BgpComputation::import_pref(Relationship::kCustomer, 0);
  peer.pref = BgpComputation::import_pref(Relationship::kPeer, 99);
  provider.pref = BgpComputation::import_pref(Relationship::kProvider, 99);
  // Relationship class dominates any local-pref value.
  EXPECT_TRUE(customer.better_than(peer));
  EXPECT_TRUE(peer.better_than(provider));

  Route short_path = customer, long_path = customer;
  short_path.as_path = {5, 9};
  long_path.as_path = {6, 7, 9};
  EXPECT_TRUE(short_path.better_than(long_path));

  Route low_hop = short_path, high_hop = short_path;
  low_hop.as_path = {3, 9};
  high_hop.as_path = {4, 9};
  EXPECT_TRUE(low_hop.better_than(high_hop));
}

TEST(Route, SerializationRoundTrips) {
  Route r;
  r.prefix = 42;
  r.as_path = {1, 2, 3};
  r.learned_from = Relationship::kPeer;
  r.pref = 217;
  const Route q = Route::deserialize(r.serialize());
  EXPECT_EQ(q.prefix, 42u);
  EXPECT_EQ(q.as_path, r.as_path);
  EXPECT_EQ(q.learned_from, Relationship::kPeer);
  EXPECT_EQ(q.pref, 217u);
  EXPECT_FALSE(q.self_originated);

  // Only the exact encoding decodes: a trailing byte or a learned_from
  // outside the three relationships is rejected, not ignored or cast.
  crypto::Bytes trailing = r.serialize();
  trailing.push_back(0);
  EXPECT_THROW(Route::deserialize(trailing), std::invalid_argument);
  crypto::Bytes bad_rel = r.serialize();
  bad_rel[4 + 4 + 4 * 3] = 3;  // learned_from, after prefix, length, path
  EXPECT_THROW(Route::deserialize(bad_rel), std::invalid_argument);
}

TEST(Route, SelfOriginatedIsZeroOrOne) {
  Route r;
  r.prefix = 7;
  r.self_originated = true;
  crypto::Bytes wire = r.serialize();
  EXPECT_TRUE(Route::deserialize(wire).self_originated);
  wire.back() = 2;  // the flag is the last byte
  EXPECT_THROW(Route::deserialize(wire), std::invalid_argument);
}

TEST(Bgp, ExportRulesAreValleyFree) {
  using R = Relationship;
  // Customer routes go everywhere.
  EXPECT_TRUE(BgpComputation::exportable(R::kCustomer, R::kCustomer));
  EXPECT_TRUE(BgpComputation::exportable(R::kCustomer, R::kPeer));
  EXPECT_TRUE(BgpComputation::exportable(R::kCustomer, R::kProvider));
  // Peer/provider routes only to customers.
  EXPECT_TRUE(BgpComputation::exportable(R::kPeer, R::kCustomer));
  EXPECT_FALSE(BgpComputation::exportable(R::kPeer, R::kPeer));
  EXPECT_FALSE(BgpComputation::exportable(R::kPeer, R::kProvider));
  EXPECT_TRUE(BgpComputation::exportable(R::kProvider, R::kCustomer));
  EXPECT_FALSE(BgpComputation::exportable(R::kProvider, R::kPeer));
  EXPECT_FALSE(BgpComputation::exportable(R::kProvider, R::kProvider));
}

TEST(Bgp, ChainReachability) {
  const auto policies = policies_of(chain3());
  const ComputationResult r = BgpComputation::compute(policies);
  // AS1 reaches prefix 3 via [2, 3].
  const Route* route = r.route_of(1, 3);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->as_path, (std::vector<AsNumber>{2, 3}));
  EXPECT_EQ(route->learned_from, Relationship::kProvider);
  // AS3 reaches prefix 1 via its customer chain.
  const Route* down = r.route_of(3, 1);
  ASSERT_NE(down, nullptr);
  EXPECT_EQ(down->as_path, (std::vector<AsNumber>{2, 1}));
  EXPECT_EQ(down->learned_from, Relationship::kCustomer);
}

TEST(Bgp, PeerValleyIsForbidden) {
  // 1 and 3 both peer with 2; 1's routes must NOT reach 3 through 2
  // (peer-learned routes are not exported to peers).
  AsGraph g;
  g.add_peering(1, 2);
  g.add_peering(2, 3);
  const auto policies = policies_of(g);
  const ComputationResult r = BgpComputation::compute(policies);
  EXPECT_NE(r.route_of(1, 2), nullptr);
  EXPECT_EQ(r.route_of(1, 3), nullptr) << "valley path leaked";
  EXPECT_EQ(r.route_of(3, 1), nullptr);
}

TEST(Bgp, CustomerRouteBeatsShorterProviderRoute) {
  // AS4 can reach prefix 1 via customer chain (longer) or provider
  // (shorter); prefer-customer must win.
  //      3 (provider of 4 and 1)
  //     /              .
  //    4                1
  //     .              /
  //      5 (customer of 4) — build: 4's customer 5,
  //      5's customer 1: path 4->5->1 customer-learned, length 2;
  //      4->3->1 provider-learned, length 2... make customer path longer:
  //      4's customer 5, 5's customer 6, 6's customer 1.
  AsGraph g;
  g.add_customer_provider(4, 3);
  g.add_customer_provider(1, 3);
  g.add_customer_provider(5, 4);
  g.add_customer_provider(6, 5);
  g.add_customer_provider(1, 6);
  auto policies = policies_of(g);
  // Zero local prefs for a clean comparison.
  for (auto& [asn, p] : policies) p.local_pref.clear();
  const ComputationResult r = BgpComputation::compute(policies);
  const Route* route = r.route_of(4, 1);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->learned_from, Relationship::kCustomer);
  EXPECT_EQ(route->as_path, (std::vector<AsNumber>{5, 6, 1}));
}

TEST(Bgp, LocalPrefBreaksTiesWithinClass) {
  // AS1 has two providers (2 and 3), both reaching origin 4 with equal
  // path lengths; local_pref decides.
  AsGraph g;
  g.add_customer_provider(1, 2);
  g.add_customer_provider(1, 3);
  g.add_customer_provider(2, 4);
  g.add_customer_provider(3, 4);
  auto policies = policies_of(g);
  for (auto& [asn, p] : policies) p.local_pref.clear();
  policies[1].local_pref[3] = 10;  // prefer provider 3
  const ComputationResult r = BgpComputation::compute(policies);
  const Route* route = r.route_of(1, 4);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop(), 3u);

  policies[1].local_pref[3] = 0;
  policies[1].local_pref[2] = 10;  // now prefer provider 2
  const ComputationResult r2 = BgpComputation::compute(policies);
  EXPECT_EQ(r2.route_of(1, 4)->next_hop(), 2u);
}

TEST(Bgp, InconsistentAnnotationsRejected) {
  auto policies = policies_of(chain3());
  policies[1].neighbor_rel[2] = Relationship::kPeer;  // 2 still says customer
  EXPECT_THROW(BgpComputation::compute(policies), std::invalid_argument);
}

TEST(Bgp, MissingNeighborPolicyRejected) {
  auto policies = policies_of(chain3());
  policies.erase(3);
  EXPECT_THROW(BgpComputation::compute(policies), std::invalid_argument);
}

TEST(Bgp, CandidatesIncludeChosenRoute) {
  crypto::Drbg rng = crypto::Drbg::from_label(test::seed(3), "bgp.cand");
  const AsGraph g = AsGraph::random(rng, 12);
  const auto policies = policies_of(g, 3);
  const ComputationResult r = BgpComputation::compute(policies);
  for (const auto& [asn, table] : r.tables) {
    for (const auto& [prefix, chosen] : table) {
      const auto& cands = r.candidates.at(asn).at(prefix);
      const bool found = std::any_of(
          cands.begin(), cands.end(), [&](const Route& c) {
            return c.as_path == chosen.as_path && c.pref == chosen.pref;
          });
      EXPECT_TRUE(found) << "chosen route missing from candidates";
      // And nothing in the candidate set beats the chosen route.
      for (const Route& c : cands) {
        EXPECT_FALSE(c.better_than(chosen));
      }
    }
  }
}

TEST(Bgp, ComputationChargesWork) {
  sgx::CostModel model;
  const auto policies = policies_of(chain3());
  {
    sgx::CostScope scope(model);
    (void)BgpComputation::compute(policies);
  }
  EXPECT_GT(model.normal_instructions(), 0u);
}

class BgpVsOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BgpVsOracle, CentralizedMatchesDistributedReference) {
  // The centralized in-enclave computation must agree exactly with the
  // independent distributed BGP-speaker simulation (unique stable state).
  crypto::Drbg rng = crypto::Drbg::from_label(GetParam(), "bgp.oracle");
  const size_t n = 4 + GetParam() % 12;
  const AsGraph g = AsGraph::random(rng, n);
  auto policies = RoutingPolicy::from_graph(g, rng);

  const ComputationResult centralized = BgpComputation::compute(policies);
  const auto reference = ReferenceBgp::compute(policies);

  ASSERT_EQ(centralized.tables.size(), reference.size());
  for (const auto& [asn, table] : centralized.tables) {
    const auto it = reference.find(asn);
    ASSERT_NE(it, reference.end()) << "AS " << asn;
    ASSERT_EQ(table.size(), it->second.size()) << "AS " << asn;
    for (const auto& [prefix, route] : table) {
      const auto jt = it->second.find(prefix);
      ASSERT_NE(jt, it->second.end()) << "AS " << asn << " prefix " << prefix;
      EXPECT_EQ(route.as_path, jt->second.as_path)
          << "AS " << asn << " prefix " << prefix;
      EXPECT_EQ(route.pref, jt->second.pref);
    }
  }
  // Both satisfy the stability invariants.
  EXPECT_NO_THROW(ReferenceBgp::check_stable(policies, centralized.tables));
  EXPECT_NO_THROW(ReferenceBgp::check_stable(policies, reference));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpVsOracle,
                         ::testing::Range<uint64_t>(test::seed(0),
                                                    test::seed(20)));

TEST(Bgp, FullReachabilityOnConnectedGraphs) {
  // Valley-free routing over our tiered topologies reaches everything:
  // every AS has a provider chain to the tier-1 clique.
  for (uint64_t seed = test::seed(100); seed < test::seed(105); ++seed) {
    crypto::Drbg rng = crypto::Drbg::from_label(seed, "bgp.reach");
    const AsGraph g = AsGraph::random(rng, 25);
    const auto policies = RoutingPolicy::from_graph(g, rng);
    const ComputationResult r = BgpComputation::compute(policies);
    for (const AsNumber asn : g.ases()) {
      for (const AsNumber origin : g.ases()) {
        if (asn == origin) continue;
        EXPECT_NE(r.route_of(asn, origin), nullptr)
            << "AS " << asn << " cannot reach " << origin << " (seed " << seed
            << ")";
      }
    }
  }
}

TEST(Bgp, StabilityCheckerCatchesViolations) {
  const auto policies = policies_of(chain3());
  auto tables = ReferenceBgp::compute(policies);

  // Introduce a loop.
  auto broken = tables;
  broken[1][3].as_path = {2, 1, 2, 3};
  EXPECT_THROW(ReferenceBgp::check_stable(policies, broken), std::logic_error);

  // Non-existent link.
  broken = tables;
  broken[1][3].as_path = {3};
  EXPECT_THROW(ReferenceBgp::check_stable(policies, broken), std::logic_error);

  // Wrong origin.
  broken = tables;
  broken[1][3].as_path = {2};
  EXPECT_THROW(ReferenceBgp::check_stable(policies, broken), std::logic_error);
}

// Pinned results at the control-failover scale: the scenario generator's
// 128-AS graphs at seeds 2015 and 7. The metered ALU total and a digest
// over `tables` and `candidates` (map order, candidate vectors in order)
// must not move when the fixpoint's data structures change — the modeled
// Table 4 cost is charged per candidate, and the verification module reads
// the candidate vectors in order.
struct Metered {
  ComputationResult result;
  uint64_t alu = 0;
  uint64_t charge_trail = 0;  // FNV-1a over every charge, in call order
};

uint64_t g_charge_trail = 0;

void fold_charge(crypto::work::Kind kind, uint64_t n) {
  for (const uint64_t v : {static_cast<uint64_t>(kind), n}) {
    g_charge_trail = (g_charge_trail ^ v) * 0x100000001b3ULL;
  }
}

Metered metered_compute(const std::map<AsNumber, RoutingPolicy>& policies,
                        const std::set<AsNumber>* origins = nullptr) {
  crypto::WorkCounters counters;
  Metered m;
  g_charge_trail = 0xcbf29ce484222325ULL;
  const crypto::work::Observer prev = crypto::work::set_observer(fold_charge);
  {
    crypto::work::Scope scope(&counters);
    m.result = origins != nullptr ? BgpComputation::compute(policies, *origins)
                                  : BgpComputation::compute(policies);
  }
  crypto::work::set_observer(prev);
  m.alu = counters.alu_ops;
  m.charge_trail = g_charge_trail;
  return m;
}

std::string result_digest(const ComputationResult& r) {
  crypto::Sha256 h;
  crypto::Bytes buf;
  for (const auto& [asn, table] : r.tables) {
    crypto::append_u32(buf, asn);
    crypto::append_u32(buf, static_cast<uint32_t>(table.size()));
    for (const auto& [prefix, route] : table) {
      crypto::append_lv(buf, route.serialize());
    }
  }
  for (const auto& [asn, per_prefix] : r.candidates) {
    crypto::append_u32(buf, asn);
    for (const auto& [prefix, cands] : per_prefix) {
      crypto::append_u32(buf, prefix);
      crypto::append_u32(buf, static_cast<uint32_t>(cands.size()));
      for (const Route& c : cands) crypto::append_lv(buf, c.serialize());
    }
  }
  h.update(buf);
  return crypto::digest_hex(h.finish()).substr(0, 16);
}

void expect_pinned(uint64_t seed, uint64_t want_alu, uint64_t want_trail,
                   const std::string& want_digest) {
  // The scenario's own generator (RoutingDeployment), so these are the
  // graphs the sharded controller computes over.
  crypto::Drbg rng = crypto::Drbg::from_label(seed, "routing.scenario");
  const AsGraph g = AsGraph::random(rng, 128, 0.15);
  const auto policies = RoutingPolicy::from_graph(g, rng);

  const Metered whole = metered_compute(policies);
  EXPECT_EQ(whole.alu, want_alu) << "seed " << seed;
  EXPECT_EQ(whole.charge_trail, want_trail) << "seed " << seed;
  EXPECT_EQ(result_digest(whole.result), want_digest) << "seed " << seed;

  // Eight round-robin slices over the sorted policy set (the sharded
  // controller's partition): the charges add up to the whole compute's and
  // the union is the whole result.
  constexpr size_t kSlices = 8;
  uint64_t alu = 0;
  ComputationResult merged;
  for (size_t s = 0; s < kSlices; ++s) {
    std::set<AsNumber> origins;
    size_t index = 0;
    for (const auto& [asn, policy] : policies) {
      if (index++ % kSlices == s) origins.insert(asn);
    }
    Metered slice = metered_compute(policies, &origins);
    alu += slice.alu;
    for (auto& [asn, table] : slice.result.tables) {
      merged.tables[asn].merge(table);
    }
    for (auto& [asn, per_prefix] : slice.result.candidates) {
      merged.candidates[asn].merge(per_prefix);
    }
  }
  EXPECT_EQ(alu, want_alu) << "seed " << seed;
  EXPECT_EQ(result_digest(merged), want_digest) << "seed " << seed;
}

TEST(BgpPinned, Scenario128AsSeed2015) {
  expect_pinned(2015, 332'358'600, 0xabffce6c5febe503ULL, "a7d4cb5d8fb8e8c9");
}

TEST(BgpPinned, Scenario128AsSeed7) {
  expect_pinned(7, 313'196'250, 0x747a6850a8c1dc6dULL, "7ed8477f58bcecd3");
}

}  // namespace
}  // namespace tenet::routing
