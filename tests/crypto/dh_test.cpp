#include "crypto/dh.h"

#include <gtest/gtest.h>

#include "crypto/rng.h"
#include "crypto/work.h"

namespace tenet::crypto {

// Group parameters print as the group name (with '_' for '-'); ctest names
// the AllGroups cases after it. The default would print the pointer, whose
// address changes from run to run with the address-space layout.
void PrintTo(const DhGroup* g, std::ostream* os) {
  for (const char c : g->name()) *os << (c == '-' ? '_' : c);
}

namespace {

class DhGroupParam : public ::testing::TestWithParam<const DhGroup*> {};

TEST_P(DhGroupParam, ModulusIsPrime) {
  Drbg rng = Drbg::from_label(21, "dh.prime");
  EXPECT_TRUE(BigInt::probably_prime(GetParam()->p(), 8, rng))
      << GetParam()->name();
}

TEST_P(DhGroupParam, IsSafePrime) {
  // p = 2q + 1 with q prime (all MODP groups are safe primes).
  Drbg rng = Drbg::from_label(22, "dh.safeprime");
  const DhGroup& g = *GetParam();
  EXPECT_EQ(g.q().shl(1).add(BigInt(1)), g.p());
  EXPECT_TRUE(BigInt::probably_prime(g.q(), 8, rng)) << g.name();
}

TEST_P(DhGroupParam, AdvertisedBitLength) {
  const DhGroup& g = *GetParam();
  const size_t expected =
      g.name().find("768") != std::string::npos    ? 768
      : g.name().find("1024") != std::string::npos ? 1024
      : g.name().find("1536") != std::string::npos ? 1536
                                                   : 2048;
  EXPECT_EQ(g.bits(), expected);
}

TEST_P(DhGroupParam, KeyExchangeAgrees) {
  const DhGroup& g = *GetParam();
  Drbg rng_a = Drbg::from_label(23, "dh.alice");
  Drbg rng_b = Drbg::from_label(24, "dh.bob");
  const DhKeyPair alice(g, rng_a);
  const DhKeyPair bob(g, rng_b);
  const Bytes s1 = alice.shared_secret(bob.public_value());
  const Bytes s2 = bob.shared_secret(alice.public_value());
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), (g.bits() + 7) / 8);
}

TEST_P(DhGroupParam, WireEncodingRoundTrips) {
  const DhGroup& g = *GetParam();
  Drbg rng_a = Drbg::from_label(25, "dh.wire.a");
  Drbg rng_b = Drbg::from_label(26, "dh.wire.b");
  const DhKeyPair alice(g, rng_a);
  const DhKeyPair bob(g, rng_b);
  // Exchange fixed-width public values as raw bytes, like the attestation
  // messages do.
  EXPECT_EQ(alice.shared_secret(BytesView(bob.public_bytes())),
            bob.shared_secret(BytesView(alice.public_bytes())));
}

INSTANTIATE_TEST_SUITE_P(
    AllGroups, DhGroupParam,
    ::testing::Values(&DhGroup::oakley_group1(), &DhGroup::oakley_group2(),
                      &DhGroup::modp_group5(), &DhGroup::modp_group14()));

TEST(Dh, RejectsDegeneratePeerValues) {
  const DhGroup& g = DhGroup::oakley_group2();
  Drbg rng = Drbg::from_label(27, "dh.degenerate");
  const DhKeyPair kp(g, rng);
  EXPECT_THROW((void)kp.shared_secret(BigInt(0)), std::invalid_argument);
  EXPECT_THROW((void)kp.shared_secret(BigInt(1)), std::invalid_argument);
  EXPECT_THROW((void)kp.shared_secret(g.p().sub(BigInt(1))),
               std::invalid_argument);
  EXPECT_THROW((void)kp.shared_secret(g.p()), std::invalid_argument);
}

TEST(Dh, DistinctKeyPairsDistinctSecrets) {
  const DhGroup& g = DhGroup::oakley_group2();
  Drbg rng = Drbg::from_label(28, "dh.distinct");
  const DhKeyPair a(g, rng), b(g, rng), c(g, rng);
  EXPECT_NE(a.public_value(), b.public_value());
  EXPECT_NE(a.shared_secret(c.public_value()), b.shared_secret(c.public_value()));
}

TEST(Dh, ExchangeCostScalesWithModulusBits) {
  // The work meter must show superlinear limb-op growth with modulus size —
  // this is the mechanism behind the paper's "DH dominates attestation
  // cycles" result and the A2 ablation.
  //
  // Absolute counts are lower than a naive square-and-multiply estimate:
  // 4-bit windowed exponentiation replaces ~bits/2 data-dependent multiplies
  // with ~bits/4 window multiplies, the squaring path charges ~3/4 of a
  // generic multiply, and the fixed-base generator table removes the
  // squarings from g^x entirely (only table-entry multiplies are charged).
  // The scaling shape — superlinear growth in modulus bits — is what the
  // paper's tables depend on, so that is what we assert.
  auto cost_of = [](const DhGroup& g) {
    Drbg rng = Drbg::from_label(29, g.name());
    WorkCounters wc;
    work::Scope scope(&wc);
    const DhKeyPair a(g, rng);
    const DhKeyPair b(g, rng);
    (void)a.shared_secret(b.public_value());
    return wc.limb_muladds;
  };
  const uint64_t c768 = cost_of(DhGroup::oakley_group1());
  const uint64_t c1024 = cost_of(DhGroup::oakley_group2());
  const uint64_t c2048 = cost_of(DhGroup::modp_group14());
  EXPECT_LT(c768, c1024);
  EXPECT_LT(c1024, c2048);
  EXPECT_GT(c2048, 4 * c768);  // ~cubic in bits; 4x is a loose lower bound
}

}  // namespace
}  // namespace tenet::crypto
