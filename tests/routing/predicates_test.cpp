#include "routing/predicates.h"

#include <gtest/gtest.h>

#include "crypto/rng.h"
#include "decoder_mutation.h"

namespace tenet::routing {
namespace {

/// Fixture topology: 1 and 3 are customers of 2; 3 also buys from 4.
///      2       4
///     / \     /
///    1   3---+
std::map<AsNumber, RoutingPolicy> fixture_policies() {
  AsGraph g;
  g.add_customer_provider(1, 2);
  g.add_customer_provider(3, 2);
  g.add_customer_provider(3, 4);
  g.add_peering(2, 4);
  crypto::Drbg rng = crypto::Drbg::from_label(1, "pred.test");
  auto policies = RoutingPolicy::from_graph(g, rng);
  for (auto& [asn, p] : policies) p.local_pref.clear();
  return policies;
}

TEST(Predicate, MostPreferredVia) {
  const auto policies = fixture_policies();
  const ComputationResult r = BgpComputation::compute(policies);
  // AS2 reaches prefix 1 directly via its customer 1.
  EXPECT_TRUE(Predicate::most_preferred_via(2, 1, 1).evaluate(r));
  // AS3's route to prefix 1 goes via 2 (customer of 2... 3 buys from 2).
  EXPECT_TRUE(Predicate::most_preferred_via(3, 2, 1).evaluate(r));
  EXPECT_FALSE(Predicate::most_preferred_via(3, 4, 1).evaluate(r));
}

TEST(Predicate, ReceivedFromChecksCandidates) {
  const auto policies = fixture_policies();
  const ComputationResult r = BgpComputation::compute(policies);
  // AS3 hears prefix 1 from both providers 2 and 4 (4 via peer 2...
  // 4 learns 1 from peer 2 — peer routes export to customers, so 4
  // announces to its customer 3).
  EXPECT_TRUE(Predicate::received_from(3, 2, 1).evaluate(r));
  EXPECT_TRUE(Predicate::received_from(3, 4, 1).evaluate(r));
  // AS1 never hears its own prefix.
  EXPECT_FALSE(Predicate::received_from(1, 2, 1).evaluate(r));
}

TEST(Predicate, PathLengthAndTraverses) {
  const auto policies = fixture_policies();
  const ComputationResult r = BgpComputation::compute(policies);
  EXPECT_TRUE(Predicate::path_length_at_most(3, 1, 2).evaluate(r));
  EXPECT_FALSE(Predicate::path_length_at_most(3, 1, 1).evaluate(r));
  EXPECT_TRUE(Predicate::route_traverses(3, 1, 2).evaluate(r));
  EXPECT_FALSE(Predicate::route_traverses(3, 1, 4).evaluate(r));
}

TEST(Predicate, UsesCustomerRoute) {
  const auto policies = fixture_policies();
  const ComputationResult r = BgpComputation::compute(policies);
  // AS2's route to prefix 1 is customer-learned; AS3's is provider-learned.
  EXPECT_TRUE(Predicate::uses_customer_route(2, 1).evaluate(r));
  EXPECT_FALSE(Predicate::uses_customer_route(3, 1).evaluate(r));
}

TEST(Predicate, BooleanCombinators) {
  const auto policies = fixture_policies();
  const ComputationResult r = BgpComputation::compute(policies);
  const Predicate t = Predicate::most_preferred_via(2, 1, 1);
  const Predicate f = Predicate::most_preferred_via(3, 4, 1);
  EXPECT_TRUE(Predicate::lor(t, f).evaluate(r));
  EXPECT_FALSE(Predicate::land(t, f).evaluate(r));
  EXPECT_TRUE(Predicate::lnot(f).evaluate(r));
  EXPECT_TRUE(Predicate::land(t, Predicate::lnot(f)).evaluate(r));
}

TEST(Predicate, PartiesCollectsAllNamedAses) {
  const Predicate p = Predicate::land(
      Predicate::most_preferred_via(3, 2, 1),
      Predicate::lnot(Predicate::received_from(3, 4, 1)));
  const auto parties = p.parties();
  EXPECT_EQ(parties, (std::vector<AsNumber>{2, 3, 4}));
}

TEST(Predicate, SerializationRoundTripsNestedTrees) {
  const Predicate p = Predicate::lor(
      Predicate::land(Predicate::path_length_at_most(5, 9, 3),
                      Predicate::uses_customer_route(5, 9)),
      Predicate::lnot(Predicate::route_traverses(5, 9, 666)));
  const Predicate q = Predicate::deserialize(p.serialize());
  EXPECT_TRUE(p.equals(q));
  EXPECT_EQ(p.serialize(), q.serialize());
}

TEST(Predicate, EqualsIsStructural) {
  const Predicate a = Predicate::most_preferred_via(3, 2, 1);
  const Predicate b = Predicate::most_preferred_via(3, 2, 1);
  const Predicate c = Predicate::most_preferred_via(3, 4, 1);
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));
  EXPECT_FALSE(a.equals(Predicate::lnot(b)));
}

TEST(Predicate, DeserializeRejectsGarbage) {
  EXPECT_THROW(Predicate::deserialize(crypto::Bytes{99, 0, 0}),
               std::invalid_argument);
  // Valid kind but truncated body.
  crypto::Bytes truncated{static_cast<uint8_t>(1), 0, 0};
  EXPECT_THROW(Predicate::deserialize(truncated), std::out_of_range);
  // kAnd with wrong arity.
  crypto::Bytes bad_arity;
  bad_arity.push_back(10);  // kAnd
  crypto::append_u32(bad_arity, 0);
  crypto::append_u32(bad_arity, 0);
  crypto::append_u32(bad_arity, 0);
  crypto::append_u32(bad_arity, 0);
  crypto::append_u32(bad_arity, 0);  // zero children
  EXPECT_THROW(Predicate::deserialize(bad_arity), std::invalid_argument);
}

TEST(Predicate, DeserializeRejectsTrailingBytes) {
  crypto::Bytes wire = Predicate::received_from(3, 4, 1).serialize();
  wire.push_back(0);
  EXPECT_THROW(Predicate::deserialize(wire), std::invalid_argument);
  // Inside a child's LV too.
  crypto::Bytes child = Predicate::received_from(3, 4, 1).serialize();
  child.push_back(0);
  crypto::Bytes parent = Predicate::lnot(Predicate::received_from(3, 4, 1))
                             .serialize();
  parent.resize(1 + 5 * 4);  // kind | subject | object | prefix | k | n
  crypto::append_lv(parent, child);
  EXPECT_THROW(Predicate::deserialize(parent), std::invalid_argument);
}

TEST(Predicate, DeserializeBoundsNesting) {
  // Three levels decode (the deepest predicate the repository builds);
  // a fourth is refused before its leaf is read.
  const Predicate leaf = Predicate::received_from(3, 4, 1);
  const Predicate deepest = Predicate::lnot(Predicate::lnot(leaf));
  EXPECT_TRUE(Predicate::deserialize(deepest.serialize()).equals(deepest));
  EXPECT_THROW(Predicate::deserialize(Predicate::lnot(deepest).serialize()),
               std::invalid_argument);
}

TEST(Predicate, SeededMutationsAreCanonicalOrRejected) {
  const Predicate p = Predicate::lor(
      Predicate::land(Predicate::path_length_at_most(5, 9, 3),
                      Predicate::uses_customer_route(5, 9)),
      Predicate::lnot(Predicate::route_traverses(5, 9, 666)));
  const test::MutationTally t = test::check_mutations(
      p.serialize(),
      [](crypto::BytesView w) { return Predicate::deserialize(w).serialize(); },
      /*seed=*/41);
  EXPECT_GT(t.accepted, 0u);
  EXPECT_GT(t.rejected, 0u);
}

TEST(Predicate, UnreachablePrefixEvaluatesFalseNotThrow) {
  AsGraph g;
  g.add_peering(1, 2);
  g.add_peering(2, 3);
  crypto::Drbg rng = crypto::Drbg::from_label(2, "pred.unreach");
  const auto policies = RoutingPolicy::from_graph(g, rng);
  const ComputationResult r = BgpComputation::compute(policies);
  // 1 cannot reach 3 (peer valley) — predicates about it are just false.
  EXPECT_FALSE(Predicate::most_preferred_via(1, 2, 3).evaluate(r));
  EXPECT_FALSE(Predicate::path_length_at_most(1, 3, 10).evaluate(r));
  EXPECT_FALSE(Predicate::uses_customer_route(1, 3).evaluate(r));
}

}  // namespace
}  // namespace tenet::routing
