#include "routing/messages.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "decoder_mutation.h"

namespace tenet::routing {
namespace {

std::vector<PolicyBinding> sample_bindings() {
  std::vector<PolicyBinding> out;
  for (AsNumber asn = 3; asn <= 5; ++asn) {
    PolicyBinding b;
    b.node = 100 + asn;
    b.policy.asn = asn;
    b.policy.neighbor_rel[asn - 1] = Relationship::kProvider;
    b.policy.neighbor_rel[asn + 1] = Relationship::kCustomer;
    b.policy.neighbor_rel[asn + 7] = Relationship::kPeer;
    b.policy.local_pref[asn + 1] = 30 + asn;
    b.policy.prefixes = {asn, 1000 + asn};
    out.push_back(std::move(b));
  }
  out.back().node = netsim::kInvalidNode;  // an AS with no node binding
  return out;
}

std::vector<BindingRef> refs(const std::vector<PolicyBinding>& bindings) {
  std::vector<BindingRef> out;
  for (const PolicyBinding& b : bindings) out.push_back({b.node, b.policy});
  return out;
}

Route route(Prefix prefix, std::vector<AsNumber> path, bool self = false) {
  Route r;
  r.prefix = prefix;
  r.as_path = std::move(path);
  r.learned_from = Relationship::kPeer;
  r.pref = 200 + prefix;
  r.self_originated = self;
  return r;
}

RoutingTable sample_table() {
  RoutingTable t;
  t[2] = route(2, {7, 2});
  t[5] = route(5, {}, /*self=*/true);
  t[9] = route(9, {7, 8, 9});
  return t;
}

/// Walks the route list at `off` in `wire`, adding each route's
/// self_originated offset (its last byte) to `flags`; returns the offset
/// after the list.
size_t walk_routes(const crypto::Bytes& wire, size_t off,
                   std::vector<size_t>& flags) {
  const uint32_t n = crypto::read_u32(wire, off);
  off += 4;
  for (uint32_t i = 0; i < n; ++i) {
    off += 4 + crypto::read_u32(wire, off);
    flags.push_back(off - 1);
  }
  return off;
}

TEST(PolicyBinding, ListRoundTripsAndRejectsTrailingBytes) {
  const std::vector<PolicyBinding> bindings = sample_bindings();
  const crypto::Bytes wire = encode_bindings(refs(bindings));
  const std::vector<PolicyBinding> back = decode_bindings(wire);
  ASSERT_EQ(back.size(), bindings.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].node, bindings[i].node);
    EXPECT_TRUE(back[i].policy.same_encoding(bindings[i].policy));
  }

  crypto::Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_bindings(trailing), std::invalid_argument);

  // A list that claims one more entry than it carries yields nothing at
  // all, not the entries before the missing one.
  crypto::Bytes short_list = wire;
  short_list[3] = static_cast<uint8_t>(bindings.size() + 1);
  EXPECT_THROW((void)decode_bindings(short_list), std::out_of_range);
}

TEST(PolicyBinding, SeededMutationsAreCanonicalOrRejected) {
  const crypto::Bytes wire = encode_bindings(refs(sample_bindings()));
  const test::MutationTally t = test::check_mutations(
      wire,
      [](crypto::BytesView w) {
        return encode_bindings(refs(decode_bindings(w)));
      },
      /*seed=*/39);
  for (size_t kind = 0; kind < 3; ++kind) EXPECT_GT(t.by_kind[kind], 0u);
  EXPECT_GT(t.accepted, 0u);  // flips inside a node id, pref or prefix
  EXPECT_GT(t.rejected, 0u);
}

TEST(PolicyBinding, ReplicationEntryIsExactlyOneBinding) {
  const std::vector<PolicyBinding> bindings = sample_bindings();
  const PolicyBinding& b = bindings.front();
  crypto::Bytes entry;
  append_binding(entry, b.node, b.policy);
  EXPECT_EQ(decode_binding(entry).node, b.node);
  entry.push_back(0);
  EXPECT_THROW((void)decode_binding(entry), std::invalid_argument);
}

TEST(PolicyFlood, SeededMutationsAreCanonicalOrRejected) {
  const crypto::Bytes wire = encode_policy_flood(refs(sample_bindings()));
  crypto::Bytes partial_tag = wire;
  partial_tag[0] = static_cast<uint8_t>(AggMsg::kPartial);
  EXPECT_THROW((void)decode_policy_flood(partial_tag), std::invalid_argument);
  const test::MutationTally t = test::check_mutations(
      wire,
      [](crypto::BytesView w) {
        return encode_policy_flood(refs(decode_policy_flood(w)));
      },
      /*seed=*/41);
  EXPECT_GT(t.accepted, 0u);
  EXPECT_GT(t.rejected, 0u);
}

TEST(Checkpoint, RoundTripsAndTakesExactlyOneFlagByte) {
  const crypto::Bytes wire = encode_checkpoint(refs(sample_bindings()), true);
  const Checkpoint c = decode_checkpoint(wire);
  EXPECT_TRUE(c.was_sharded);
  EXPECT_EQ(c.bindings.size(), 3u);

  crypto::Bytes no_flag = wire;
  no_flag.pop_back();
  EXPECT_THROW((void)decode_checkpoint(no_flag), std::out_of_range);
  crypto::Bytes trailing = wire;
  trailing.push_back(1);
  EXPECT_THROW((void)decode_checkpoint(trailing), std::invalid_argument);

  const test::MutationTally t = test::check_mutations(
      wire,
      [](crypto::BytesView w) {
        const Checkpoint back = decode_checkpoint(w);
        return encode_checkpoint(refs(back.bindings), back.was_sharded);
      },
      /*seed=*/41, /*flag_offsets=*/{wire.size() - 1});
  EXPECT_GT(t.by_kind[3], 0u);
  EXPECT_GT(t.accepted, 0u);
  EXPECT_GT(t.rejected, 0u);
}

TEST(RoutingTable, RejectsARepeatedPrefixAndTrailingBytes) {
  const RoutingTable table = sample_table();
  const crypto::Bytes wire = encode_routing_table(table);
  EXPECT_EQ(decode_routing_table(wire).size(), table.size());

  // A table listing prefix 2 twice used to keep the second row.
  crypto::Bytes repeated;
  crypto::append_u32(repeated, 2);
  crypto::append_lv(repeated, route(2, {7, 2}).serialize());
  crypto::append_lv(repeated, route(2, {8, 2}).serialize());
  EXPECT_THROW((void)decode_routing_table(repeated), std::invalid_argument);

  crypto::Bytes descending;
  crypto::append_u32(descending, 2);
  crypto::append_lv(descending, route(9, {7, 9}).serialize());
  crypto::append_lv(descending, route(2, {7, 2}).serialize());
  EXPECT_THROW((void)decode_routing_table(descending), std::invalid_argument);

  crypto::Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_routing_table(trailing), std::invalid_argument);
}

TEST(RoutingTable, SeededMutationsAreCanonicalOrRejected) {
  const crypto::Bytes wire = encode_routing_table(sample_table());
  std::vector<size_t> flags;
  ASSERT_EQ(walk_routes(wire, 0, flags), wire.size());
  const test::MutationTally t = test::check_mutations(
      wire,
      [](crypto::BytesView w) {
        return encode_routing_table(decode_routing_table(w));
      },
      /*seed=*/41, flags);
  EXPECT_GT(t.by_kind[3], 0u);
  EXPECT_GT(t.accepted, 0u);
  EXPECT_GT(t.rejected, 0u);
}

/// A slice holding rows and candidates for ASes 3 and 8; AS 5 is fronted
/// with neither.
ComputationResult sample_slice() {
  ComputationResult slice;
  slice.tables[3] = sample_table();
  slice.tables[8][4] = route(4, {3, 4});
  slice.candidates[3][2] = {route(2, {7, 2}), route(2, {6, 1, 2})};
  slice.candidates[3][9] = {route(9, {7, 8, 9})};
  slice.candidates[8][4] = {route(4, {3, 4})};
  return slice;
}

crypto::Bytes encode_partial(const Partial& p) {
  ComputationResult slice;
  std::vector<AsNumber> fronted;
  for (const auto& [asn, rows] : p.rows) {
    fronted.push_back(asn);
    slice.tables[asn] = rows.chosen;
    slice.candidates[asn] = rows.candidates;
  }
  crypto::Bytes out;
  append_partial(out, p.down, fronted, slice);
  return out;
}

TEST(Partial, RoundTripsTheFrontedRows) {
  crypto::Bytes wire;
  append_partial(wire, {1, 6}, {3, 5, 8}, sample_slice());
  const Partial p = decode_partial(wire);
  EXPECT_EQ(p.down, (std::vector<uint32_t>{1, 6}));
  ASSERT_EQ(p.rows.size(), 3u);
  EXPECT_EQ(p.rows.at(3).chosen.size(), 3u);
  EXPECT_EQ(p.rows.at(3).candidates.at(2).size(), 2u);
  EXPECT_TRUE(p.rows.at(5).chosen.empty());
  EXPECT_TRUE(p.rows.at(5).candidates.empty());
  EXPECT_EQ(p.rows.at(8).chosen.at(4).as_path, (std::vector<AsNumber>{3, 4}));
  EXPECT_EQ(encode_partial(p), wire);
}

TEST(Partial, RejectsWhatNoEncoderWrites) {
  const ComputationResult slice = sample_slice();
  crypto::Bytes wire;
  append_partial(wire, {2}, {3, 8}, slice);

  crypto::Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_partial(trailing), std::invalid_argument);

  crypto::Bytes unsorted;  // the encoder trusts its caller's order
  append_partial(unsorted, {2}, {8, 3}, slice);
  EXPECT_THROW((void)decode_partial(unsorted), std::invalid_argument);
  crypto::Bytes repeated;
  append_partial(repeated, {2}, {3, 3}, slice);
  EXPECT_THROW((void)decode_partial(repeated), std::invalid_argument);
  crypto::Bytes down_unsorted;
  append_partial(down_unsorted, {5, 2}, {3}, slice);
  EXPECT_THROW((void)decode_partial(down_unsorted), std::invalid_argument);
  crypto::Bytes down_repeated;
  append_partial(down_repeated, {2, 2}, {3}, slice);
  EXPECT_THROW((void)decode_partial(down_repeated), std::invalid_argument);

  // Candidates whose prefixes descend, then rows of one AS with a prefix
  // listed twice.
  ComputationResult bad;
  bad.candidates[3][9] = {route(2, {7, 2})};
  bad.candidates[3][2] = {route(9, {7, 9})};
  crypto::Bytes descending;
  append_partial(descending, {2}, {3}, bad);
  EXPECT_THROW((void)decode_partial(descending), std::invalid_argument);
  bad.candidates.clear();
  bad.tables[3][2] = route(2, {7, 2});
  bad.tables[3][4] = route(2, {8, 2});
  crypto::Bytes twice;
  append_partial(twice, {2}, {3}, bad);
  EXPECT_THROW((void)decode_partial(twice), std::invalid_argument);

  crypto::Bytes flood_tag = wire;
  flood_tag[0] = static_cast<uint8_t>(AggMsg::kPolicy);
  EXPECT_THROW((void)decode_partial(flood_tag), std::invalid_argument);
}

TEST(Partial, SeededMutationsAreCanonicalOrRejected) {
  crypto::Bytes wire;
  append_partial(wire, {2}, {3, 5, 8}, sample_slice());
  std::vector<size_t> flags;
  size_t off = 1 + 4 + 4;  // tag, one down member
  const uint32_t n = crypto::read_u32(wire, off);
  off += 4;
  for (uint32_t i = 0; i < n; ++i) {
    off = walk_routes(wire, off + 4, flags);  // after the asn: chosen rows
    off = walk_routes(wire, off, flags);      // candidates
  }
  ASSERT_EQ(off, wire.size());
  const test::MutationTally t = test::check_mutations(
      wire,
      [](crypto::BytesView w) { return encode_partial(decode_partial(w)); },
      /*seed=*/41, flags);
  EXPECT_GT(t.by_kind[3], 0u);
  EXPECT_GT(t.accepted, 0u);
  EXPECT_GT(t.rejected, 0u);
}

Predicate sample_predicate() {
  return Predicate::lor(
      Predicate::land(Predicate::path_length_at_most(5, 9, 3),
                      Predicate::uses_customer_route(5, 9)),
      Predicate::lnot(Predicate::route_traverses(5, 9, 666)));
}

TEST(PredicateWire, RegisterBodyIsExact) {
  const crypto::Bytes msg = encode_register_predicate(7, sample_predicate());
  const crypto::BytesView body = message_body(msg);
  const PredicateRegistration reg = decode_register_predicate(body);
  EXPECT_EQ(reg.pred_id, 7u);
  EXPECT_TRUE(reg.predicate.equals(sample_predicate()));

  crypto::Bytes trailing(body.begin(), body.end());
  trailing.push_back(0);
  EXPECT_THROW((void)decode_register_predicate(trailing),
               std::invalid_argument);

  const test::MutationTally t = test::check_mutations(
      crypto::Bytes(body.begin(), body.end()),
      [](crypto::BytesView w) {
        const PredicateRegistration back = decode_register_predicate(w);
        const crypto::Bytes again =
            encode_register_predicate(back.pred_id, back.predicate);
        const crypto::BytesView again_body = message_body(again);
        return crypto::Bytes(again_body.begin(), again_body.end());
      },
      /*seed=*/41);
  EXPECT_GT(t.accepted, 0u);
  EXPECT_GT(t.rejected, 0u);
}

TEST(PredicateWire, VerifyRequestAndResponseAreExact) {
  const crypto::Bytes request = encode_verify_request(9);
  EXPECT_EQ(decode_verify_request(message_body(request)), 9u);
  crypto::Bytes long_request(request.begin() + 1, request.end());
  long_request.push_back(0);
  EXPECT_THROW((void)decode_verify_request(long_request),
               std::invalid_argument);

  const crypto::Bytes response =
      encode_verify_response(9, VerifyStatus::kHolds);
  const VerifyResponse v = decode_verify_response(message_body(response));
  EXPECT_EQ(v.pred_id, 9u);
  EXPECT_EQ(v.status, VerifyStatus::kHolds);
  for (const uint8_t status : {0, 6, 255}) {
    crypto::Bytes body(response.begin() + 1, response.end());
    body.back() = status;
    EXPECT_THROW((void)decode_verify_response(body), std::invalid_argument);
  }

  const auto body_of = [](const crypto::Bytes& msg) {
    const crypto::BytesView body = message_body(msg);
    return crypto::Bytes(body.begin(), body.end());
  };
  test::MutationTally t = test::check_mutations(
      body_of(request),
      [&](crypto::BytesView w) {
        return body_of(encode_verify_request(decode_verify_request(w)));
      },
      /*seed=*/41);
  EXPECT_GT(t.accepted, 0u);
  EXPECT_GT(t.rejected, 0u);
  t = test::check_mutations(
      body_of(response),
      [&](crypto::BytesView w) {
        const VerifyResponse back = decode_verify_response(w);
        return body_of(encode_verify_response(back.pred_id, back.status));
      },
      /*seed=*/42);
  EXPECT_GT(t.accepted, 0u);
  EXPECT_GT(t.rejected, 0u);
}

}  // namespace
}  // namespace tenet::routing
