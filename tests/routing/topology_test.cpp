#include "routing/topology.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <vector>

#include "test_seed.h"

namespace tenet::routing {
namespace {

TEST(Relationship, InverseIsInvolution) {
  for (Relationship r : {Relationship::kCustomer, Relationship::kPeer,
                         Relationship::kProvider}) {
    EXPECT_EQ(inverse(inverse(r)), r);
  }
  EXPECT_EQ(inverse(Relationship::kCustomer), Relationship::kProvider);
  EXPECT_EQ(inverse(Relationship::kPeer), Relationship::kPeer);
}

TEST(AsGraph, LinksAreSymmetricWithInverseLabels) {
  AsGraph g;
  g.add_customer_provider(/*customer=*/100, /*provider=*/200);
  EXPECT_TRUE(g.has_link(100, 200));
  EXPECT_TRUE(g.has_link(200, 100));
  // From 100's view, 200 is its provider; from 200's view, 100 is customer.
  EXPECT_EQ(*g.relationship(100, 200), Relationship::kProvider);
  EXPECT_EQ(*g.relationship(200, 100), Relationship::kCustomer);

  g.add_peering(100, 300);
  EXPECT_EQ(*g.relationship(100, 300), Relationship::kPeer);
  EXPECT_EQ(*g.relationship(300, 100), Relationship::kPeer);
}

TEST(AsGraph, SelfLinkRejected) {
  AsGraph g;
  EXPECT_THROW(g.add_peering(1, 1), std::invalid_argument);
}

TEST(AsGraph, MissingEntitiesReported) {
  AsGraph g;
  g.add_as(1);
  EXPECT_TRUE(g.has_as(1));
  EXPECT_FALSE(g.has_as(2));
  EXPECT_FALSE(g.has_link(1, 2));
  EXPECT_FALSE(g.relationship(1, 2).has_value());
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(AsGraph, CountsAndConnectivity) {
  AsGraph g;
  g.add_customer_provider(1, 2);
  g.add_customer_provider(3, 2);
  EXPECT_EQ(g.as_count(), 3u);
  EXPECT_EQ(g.link_count(), 2u);
  EXPECT_TRUE(g.connected());
  g.add_as(99);  // isolated
  EXPECT_FALSE(g.connected());
}

class RandomTopology : public ::testing::TestWithParam<size_t> {};

TEST_P(RandomTopology, IsWellFormed) {
  crypto::Drbg rng = crypto::Drbg::from_label(GetParam(), "topo.test");
  const AsGraph g = AsGraph::random(rng, GetParam());
  EXPECT_EQ(g.as_count(), GetParam());
  EXPECT_TRUE(g.connected());
  // AS numbers are 1..n and every AS has at least one link.
  for (const AsNumber asn : g.ases()) {
    EXPECT_GE(asn, 1u);
    EXPECT_LE(asn, GetParam());
    EXPECT_FALSE(g.neighbors(asn).empty()) << "AS " << asn << " isolated";
  }
}

TEST_P(RandomTopology, NoProviderCyclesAmongTiers) {
  // Customer->provider edges must be acyclic (tiered generation).
  crypto::Drbg rng = crypto::Drbg::from_label(GetParam(), "topo.cycles");
  const AsGraph g = AsGraph::random(rng, GetParam());
  // Kahn's algorithm over the provider DAG.
  std::map<AsNumber, int> out_degree;  // edges to providers
  for (const AsNumber asn : g.ases()) {
    out_degree[asn] = 0;
    for (const auto& [n, rel] : g.neighbors(asn)) {
      if (rel == Relationship::kProvider) ++out_degree[asn];
    }
  }
  // Repeatedly remove nodes with no providers; all must be removable.
  std::set<AsNumber> remaining;
  for (const auto& [asn, d] : out_degree) remaining.insert(asn);
  bool progress = true;
  while (progress && !remaining.empty()) {
    progress = false;
    for (auto it = remaining.begin(); it != remaining.end();) {
      int providers_left = 0;
      for (const auto& [n, rel] : g.neighbors(*it)) {
        if (rel == Relationship::kProvider && remaining.contains(n)) {
          ++providers_left;
        }
      }
      if (providers_left == 0) {
        it = remaining.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
  }
  EXPECT_TRUE(remaining.empty()) << "provider cycle detected";
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomTopology,
                         ::testing::Values(2, 3, 5, 10, 30, 60));

TEST(RandomTopology, DeterministicPerSeed) {
  crypto::Drbg r1 = crypto::Drbg::from_label(7, "topo.det");
  crypto::Drbg r2 = crypto::Drbg::from_label(7, "topo.det");
  const AsGraph a = AsGraph::random(r1, 20);
  const AsGraph b = AsGraph::random(r2, 20);
  EXPECT_EQ(a.link_count(), b.link_count());
  for (const AsNumber asn : a.ases()) {
    EXPECT_EQ(a.neighbors(asn), b.neighbors(asn));
  }
}

TEST(RoutingPolicy, SerializationRoundTrips) {
  RoutingPolicy p;
  p.asn = 7018;
  p.neighbor_rel[1] = Relationship::kCustomer;
  p.neighbor_rel[2] = Relationship::kPeer;
  p.neighbor_rel[3] = Relationship::kProvider;
  p.local_pref[1] = 42;
  p.prefixes = {7018, 9999};

  const RoutingPolicy q = RoutingPolicy::deserialize(p.serialize());
  EXPECT_EQ(q.asn, 7018u);
  EXPECT_EQ(q.neighbor_rel, p.neighbor_rel);
  EXPECT_EQ(q.local_pref, p.local_pref);
  EXPECT_EQ(q.prefixes, p.prefixes);
}

TEST(RoutingPolicy, DeserializeRejectsBadRelationship) {
  RoutingPolicy p;
  p.asn = 1;
  p.neighbor_rel[2] = Relationship::kPeer;
  crypto::Bytes wire = p.serialize();
  wire[8 + 4] = 77;  // corrupt the relationship byte of neighbor 2
  EXPECT_THROW(RoutingPolicy::deserialize(wire), std::invalid_argument);

  // A trailing byte is rejected.
  crypto::Bytes trailing = p.serialize();
  trailing.push_back(0);
  EXPECT_THROW(RoutingPolicy::deserialize(trailing), std::invalid_argument);

  // So is a neighbor listed twice, which would otherwise decode to a
  // policy that re-encodes to other bytes (the second entry's pref of 0
  // left the first entry's pref standing).
  crypto::Bytes twice;
  crypto::append_u32(twice, 1);  // asn
  crypto::append_u32(twice, 2);  // two neighbor entries
  for (const uint32_t pref : {42u, 0u}) {
    crypto::append_u32(twice, 2);
    twice.push_back(static_cast<uint8_t>(Relationship::kPeer));
    crypto::append_u32(twice, pref);
  }
  crypto::append_u32(twice, 0);  // no prefixes
  EXPECT_THROW(RoutingPolicy::deserialize(twice), std::invalid_argument);
}

TEST(RoutingPolicy, SameEncodingAgreesWithEncodingEquality) {
  // Small policies over a small space, so many pairs encode equally. Half
  // the pool is decoded (the controller's view: no local_pref of 0, none
  // for a non-neighbor); the other half keeps both, which the encoding
  // drops, so the comparison must ignore them too.
  std::mt19937_64 rng(test::seed(36));
  std::vector<RoutingPolicy> pool;
  for (int i = 0; i < 160; ++i) {
    RoutingPolicy p;
    p.asn = 1 + static_cast<AsNumber>(rng() % 2);
    for (AsNumber n = 2; n <= 3; ++n) {
      if (rng() % 2 == 0) continue;
      p.neighbor_rel[n] = static_cast<Relationship>(rng() % 2);
      const uint32_t lp = rng() % 3 == 0 ? 7 : 0;
      if (lp != 0 || i % 2 == 1) p.local_pref[n] = lp;
    }
    if (i % 2 == 1 && rng() % 2 == 0) p.local_pref[9] = 5;  // not a neighbor
    if (rng() % 2 == 0) p.prefixes.push_back(p.asn);
    pool.push_back(i % 2 == 0 ? RoutingPolicy::deserialize(p.serialize())
                              : std::move(p));
  }
  size_t equal = 0;
  for (const RoutingPolicy& a : pool) {
    for (const RoutingPolicy& b : pool) {
      const bool same = a.serialize() == b.serialize();
      ASSERT_EQ(a.same_encoding(b), same);
      equal += same ? 1 : 0;
    }
  }
  EXPECT_GT(equal, pool.size());  // not only each policy with itself
}

TEST(RoutingPolicy, FromGraphCoversEveryAs) {
  crypto::Drbg rng = crypto::Drbg::from_label(9, "topo.policy");
  const AsGraph g = AsGraph::random(rng, 12);
  const auto policies = RoutingPolicy::from_graph(g, rng);
  EXPECT_EQ(policies.size(), 12u);
  for (const auto& [asn, p] : policies) {
    EXPECT_EQ(p.asn, asn);
    EXPECT_EQ(p.neighbor_rel.size(), g.neighbors(asn).size());
    ASSERT_EQ(p.prefixes.size(), 1u);
    EXPECT_EQ(p.prefixes[0], asn);
    for (const auto& [n, rel] : p.neighbor_rel) {
      EXPECT_EQ(rel, *g.relationship(asn, n));
      EXPECT_LT(p.local_pref.at(n), 50u);
    }
  }
}

}  // namespace
}  // namespace tenet::routing
