#include "crypto/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

namespace tenet::crypto {
namespace {

TEST(Drbg, DeterministicPerSeed) {
  Drbg a = Drbg::from_label(1);
  Drbg b = Drbg::from_label(1);
  EXPECT_EQ(a.bytes(128), b.bytes(128));
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a = Drbg::from_label(1);
  Drbg b = Drbg::from_label(2);
  EXPECT_NE(a.bytes(64), b.bytes(64));
}

TEST(Drbg, DifferentLabelsDiffer) {
  Drbg a = Drbg::from_label(1, "alpha");
  Drbg b = Drbg::from_label(1, "beta");
  EXPECT_NE(a.bytes(64), b.bytes(64));
}

TEST(Drbg, StreamIsStateful) {
  Drbg a = Drbg::from_label(3);
  const Bytes first = a.bytes(32);
  const Bytes second = a.bytes(32);
  EXPECT_NE(first, second);
}

TEST(Drbg, FillCrossesBlockBoundaries) {
  // Pull sizes that straddle the 64-byte ChaCha block repeatedly; the
  // concatenation must equal one big pull from an identical generator.
  Drbg piecewise = Drbg::from_label(4);
  Drbg oneshot = Drbg::from_label(4);
  Bytes collected;
  for (size_t n : {1u, 63u, 64u, 65u, 7u, 128u}) append(collected, piecewise.bytes(n));
  EXPECT_EQ(collected, oneshot.bytes(collected.size()));
}

TEST(Drbg, UniformBoundsRespected) {
  Drbg rng = Drbg::from_label(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  EXPECT_EQ(rng.uniform(1), 0u);
  EXPECT_THROW(rng.uniform(0), std::invalid_argument);
}

TEST(Drbg, UniformIsRoughlyUniform) {
  Drbg rng = Drbg::from_label(6);
  std::map<uint64_t, int> histogram;
  constexpr int kDraws = 8000;
  constexpr uint64_t kBuckets = 8;
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.uniform(kBuckets)];
  for (uint64_t b = 0; b < kBuckets; ++b) {
    // Expected 1000 per bucket; allow generous +-20%.
    EXPECT_GT(histogram[b], 800) << "bucket " << b;
    EXPECT_LT(histogram[b], 1200) << "bucket " << b;
  }
}

TEST(Drbg, UniformRealInUnitInterval) {
  Drbg rng = Drbg::from_label(7);
  double sum = 0;
  for (int i = 0; i < 4000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 4000, 0.5, 0.03);
}

TEST(Drbg, ForkProducesIndependentStreams) {
  Drbg parent = Drbg::from_label(8);
  Drbg child1 = parent.fork("node-1");
  Drbg child2 = parent.fork("node-1");  // same label, later parent state
  EXPECT_NE(child1.bytes(32), child2.bytes(32));

  // Forks are reproducible given identical parent state and label.
  Drbg parent_a = Drbg::from_label(9);
  Drbg parent_b = Drbg::from_label(9);
  EXPECT_EQ(parent_a.fork("n").bytes(32), parent_b.fork("n").bytes(32));
}

TEST(Drbg, NoShortCycleInFirst64KB) {
  Drbg rng = Drbg::from_label(10);
  std::set<std::array<uint8_t, 64>> seen;
  for (int i = 0; i < 1024; ++i) {
    const Bytes b = rng.bytes(64);
    std::array<uint8_t, 64> block{};
    std::copy(b.begin(), b.end(), block.begin());
    EXPECT_TRUE(seen.insert(block).second) << "cycle at block " << i;
  }
}

}  // namespace
}  // namespace tenet::crypto
