#include "tor/common.h"

#include <gtest/gtest.h>

#include "decoder_mutation.h"

namespace tenet::tor {
namespace {

RelayDescriptor sample() {
  RelayDescriptor d;
  d.node = 7;
  d.nickname = "relay-7";
  d.onion_public.assign(128, 0x5a);
  d.exit = true;
  return d;
}

TEST(RelayDescriptor, RejectsTrailingBytesAndBadFlags) {
  const crypto::Bytes wire = sample().serialize();
  EXPECT_EQ(RelayDescriptor::deserialize(wire).serialize(), wire);

  crypto::Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(RelayDescriptor::deserialize(trailing), std::invalid_argument);

  for (const size_t flag : {wire.size() - 2, wire.size() - 1}) {
    crypto::Bytes bad = wire;
    bad[flag] = 2;
    EXPECT_THROW(RelayDescriptor::deserialize(bad), std::invalid_argument);
  }
}

TEST(RelayDescriptor, SeededMutationsAreCanonicalOrRejected) {
  const crypto::Bytes wire = sample().serialize();
  const test::MutationTally t = test::check_mutations(
      wire,
      [](crypto::BytesView w) {
        return RelayDescriptor::deserialize(w).serialize();
      },
      /*seed=*/32, /*flag_offsets=*/{wire.size() - 2, wire.size() - 1});
  for (const size_t n : t.by_kind) EXPECT_GT(n, 0u);
  EXPECT_GT(t.accepted, 0u);  // flips inside the nickname or key
  EXPECT_GT(t.rejected, 0u);
}

}  // namespace
}  // namespace tenet::tor
