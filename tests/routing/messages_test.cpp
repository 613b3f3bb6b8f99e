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

crypto::Bytes encode(const std::vector<PolicyBinding>& bindings) {
  crypto::Bytes out;
  crypto::append_u32(out, static_cast<uint32_t>(bindings.size()));
  for (const PolicyBinding& b : bindings) {
    append_binding(out, b.node, b.policy);
  }
  return out;
}

TEST(PolicyBinding, ListRoundTripsAndRejectsTrailingBytes) {
  const std::vector<PolicyBinding> bindings = sample_bindings();
  const crypto::Bytes wire = encode(bindings);
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
  const crypto::Bytes wire = encode(sample_bindings());
  const test::MutationTally t = test::check_mutations(
      wire,
      [](crypto::BytesView w) { return encode(decode_bindings(w)); },
      /*seed=*/39);
  for (size_t kind = 0; kind < 3; ++kind) EXPECT_GT(t.by_kind[kind], 0u);
  EXPECT_GT(t.accepted, 0u);  // flips inside a node id, pref or prefix
  EXPECT_GT(t.rejected, 0u);
}

}  // namespace
}  // namespace tenet::routing
