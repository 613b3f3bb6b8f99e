// Kernel-level differential test for the radix-52 IFMA Montgomery multiply.
//
// ifma::amm is otherwise only reached through Montgomery::exp and
// FixedBaseTable::power, where a wrong low limb or a lost carry shows up as
// one wrong exponentiation among many inputs. Here each AMM is checked on
// its own, for every supported chunk count, against two oracles:
//   * the AMM definition: out = (a*b + M*n) / R52 with the unique
//     M = -a*b*n^-1 mod R52 in [0, R52) — so the output value is exact,
//     not merely congruent;
//   * the scalar CIOS kernel: out*R52 ≡ a*b (mod n) via Montgomery::mul_mod.
// Operands span the whole redundant range [0, 2n), edges included, and
// include products built to make chosen reduction digits zero.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/bignum_ifma.h"
#include "crypto/dh.h"
#include "crypto/rng.h"
#include "test_seed.h"

namespace tenet::crypto {
namespace {

constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;

// x mod 2^bits.
BigInt low_bits(const BigInt& x, size_t bits) {
  return x.sub(x.shr(bits).shl(bits));
}

std::vector<uint64_t> to_limbs(const BigInt& x, size_t count, size_t width) {
  std::vector<uint64_t> out(count);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  for (size_t j = 0; j < count; ++j) {
    out[j] = x.shr(width * j).low_u64() & mask;
  }
  return out;
}

BigInt from_limbs52(const std::vector<uint64_t>& x) {
  BigInt v;
  for (size_t j = x.size(); j-- > 0;) v = v.shl(52).add(BigInt(x[j]));
  return v;
}

// Smallest and largest 64-bit limb counts whose radix-52 form needs `nc`
// zmm chunks.
std::vector<size_t> limb_counts_for_chunks(int nc) {
  std::vector<size_t> ks;
  for (size_t k = 1; k < 64; ++k) {
    if (static_cast<int>((ifma::limbs52(k) + 7) / 8) == nc) ks.push_back(k);
  }
  if (ks.size() > 2) ks.erase(ks.begin() + 1, ks.end() - 1);
  return ks;
}

BigInt random_odd_modulus(Drbg& rng, size_t k) {
  Bytes raw = rng.bytes(8 * k);
  raw.front() |= 0x80;
  raw.back() |= 0x01;
  return BigInt::from_bytes_be(raw);
}

// x^-1 mod 2^bits for odd x, by Newton iteration (the precision doubles
// each step).
BigInt inverse_mod_pow2(const BigInt& x, size_t bits) {
  BigInt inv(1);
  for (size_t prec = 1; prec < bits; prec *= 2) {
    const BigInt xinv = low_bits(x.mul(inv), bits);
    const BigInt two_minus =
        low_bits(BigInt(2).add(BigInt(1).shl(bits)).sub(xinv), bits);
    inv = low_bits(inv.mul(two_minus), bits);
  }
  return inv;
}

// An IFMA context for one modulus plus the two oracles each AMM is checked
// against.
struct AmmChecker {
  explicit AmmChecker(const BigInt& modulus, std::string name)
      : n(modulus),
        label(std::move(name)),
        l(ifma::limbs52(n.limb_count())),
        bits(52 * l),
        n_prime(BigInt(1).shl(bits).sub(inverse_mod_pow2(n, bits))),
        r52_mod_n(BigInt(1).shl(bits).mod(n)),
        two_n(n.shl(1)),
        mont(n) {}

  // Builds the context; false (with a test failure) if init refuses.
  bool init() {
    const size_t k = n.limb_count();
    const std::vector<uint64_t> n64 = to_limbs(n, k, 64);
    const std::vector<uint64_t> r52sq64 =
        to_limbs(mont.mul_mod(r52_mod_n, r52_mod_n), k, 64);
    EXPECT_TRUE(
        ifma::init(ctx, n64.data(), k, n_prime.low_u64(), r52sq64.data()))
        << label;
    EXPECT_EQ(ctx.l, l) << label;
    return ctx && ctx.l == l;
  }

  // The AMM quotient M = -a*b*n^-1 mod R52; its 52-bit digits are the
  // kernel's per-row reduction digits m_i.
  BigInt quotient(const BigInt& a, const BigInt& b) const {
    return low_bits(low_bits(a.mul(b), bits).mul(n_prime), bits);
  }

  void check(const BigInt& a, const BigInt& b,
             const std::vector<uint64_t>& out, const char* how) const {
    for (size_t j = 0; j < ctx.lp; ++j) {
      ASSERT_LE(out[j], kMask52) << label << " " << how << " limb " << j;
    }
    const BigInt got = from_limbs52(out);
    EXPECT_LT(got, two_n) << label << " " << how;
    const BigInt ab = a.mul(b);
    EXPECT_EQ(got, ab.add(quotient(a, b).mul(n)).shr(bits))
        << label << " " << how << " a=" << a.to_hex() << " b=" << b.to_hex();
    EXPECT_EQ(mont.mul_mod(got, r52_mod_n), mont.mul_mod(a, b))
        << label << " " << how;
  }

  // amm(a, b) into a separate buffer, checked.
  void check_product(const BigInt& a, const BigInt& b) const {
    const std::vector<uint64_t> a52 = to_limbs(a, ctx.lp, 52);
    const std::vector<uint64_t> b52 = to_limbs(b, ctx.lp, 52);
    std::vector<uint64_t> out(ctx.lp, ~uint64_t{0});
    ifma::amm(ctx, a52.data(), b52.data(), out.data());
    check(a, b, out, "amm(a, b)");
  }

  const BigInt n;
  const std::string label;
  const size_t l;
  const size_t bits;      // R52 = 2^bits
  const BigInt n_prime;   // -n^-1 mod R52
  const BigInt r52_mod_n;
  const BigInt two_n;
  const Montgomery mont;
  ifma::Ctx ctx;
};

// Runs amm over edge and random operands for one modulus and checks each
// product against both oracles. `rng` supplies the random operands.
void check_modulus(const BigInt& n, Drbg& rng, const std::string& label) {
  AmmChecker amm(n, label);
  ASSERT_TRUE(amm.init());
  const size_t k = n.limb_count();
  const BigInt& two_n = amm.two_n;
  std::vector<BigInt> operands = {BigInt(0), BigInt(1), n.sub(BigInt(1)), n,
                                  two_n.sub(BigInt(1))};
  for (int i = 0; i < 4; ++i) {
    operands.push_back(
        BigInt::from_bytes_be(rng.bytes(8 * k + 8)).mod(two_n));
  }

  for (const BigInt& a : operands) {
    for (const BigInt& b : operands) {
      amm.check_product(a, b);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The ladder squares in place: amm(c, x, x, x).
    std::vector<uint64_t> x = to_limbs(a, amm.ctx.lp, 52);
    ifma::amm(amm.ctx, x.data(), x.data(), x.data());
    amm.check(a, a, x, "amm(x, x, x)");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IfmaAmm, MatchesDefinitionForEveryChunkCount) {
  if (!ifma::available()) GTEST_SKIP() << "CPU lacks AVX512-IFMA";
  Drbg rng = Drbg::from_label(test::seed(106), "ifma.amm.random");
  for (int nc = 2; nc <= 8; ++nc) {
    const std::vector<size_t> ks = limb_counts_for_chunks(nc);
    ASSERT_FALSE(ks.empty()) << "nc " << nc;
    for (const size_t k : ks) {
      const std::string label =
          "nc " + std::to_string(nc) + " k " + std::to_string(k);
      // n = 2^(64k) - 1 makes every row add exactly 2^52 - 1 to each
      // middle lane, so the final carry pass meets long runs of lanes equal
      // to the limb mask — carry chains random moduli almost never reach.
      check_modulus(BigInt(1).shl(64 * k).sub(BigInt(1)), rng,
                    label + " all-ones");
      if (HasFatalFailure()) return;
      for (int rep = 0; rep < 2; ++rep) {
        check_modulus(random_odd_modulus(rng, k), rng, label);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(IfmaAmm, MatchesDefinitionForModpPrimes) {
  // The moduli the DH groups run on; their top and bottom 64 bits are all
  // ones.
  if (!ifma::available()) GTEST_SKIP() << "CPU lacks AVX512-IFMA";
  Drbg rng = Drbg::from_label(test::seed(107), "ifma.amm.modp");
  for (const DhGroup* g : {&DhGroup::oakley_group1(), &DhGroup::oakley_group2(),
                           &DhGroup::modp_group5(), &DhGroup::modp_group14()}) {
    check_modulus(g->p(), rng, g->name());
    if (HasFatalFailure()) return;
  }
}

TEST(IfmaAmm, ZeroReductionDigitsMidMultiply) {
  // A row whose reduction digit m_i is 0 carries exactly (x0 + lo(a_i*b0))
  // >> 52 out of the freed limb, without the +1 every other row adds.
  // Random operands hit m_i = 0 with probability 2^-52 per row, so these
  // operands choose the digits: for a quotient M whose low K digits are
  // picked (some zero) and an odd b, a = -M*n*b^-1 mod 2^(52K) makes the
  // AMM's quotient agree with M on those K digits. K keeps a below n, so
  // a's upper limbs, and its rows above K, are zero.
  if (!ifma::available()) GTEST_SKIP() << "CPU lacks AVX512-IFMA";
  Drbg rng = Drbg::from_label(test::seed(108), "ifma.amm.zero-digits");
  std::vector<std::pair<std::string, BigInt>> moduli;
  for (int nc = 2; nc <= 8; ++nc) {
    const size_t k = limb_counts_for_chunks(nc).back();
    moduli.emplace_back("nc " + std::to_string(nc) + " k " + std::to_string(k),
                        random_odd_modulus(rng, k));
  }
  for (const DhGroup* g : {&DhGroup::oakley_group1(), &DhGroup::oakley_group2(),
                           &DhGroup::modp_group5(), &DhGroup::modp_group14()}) {
    moduli.emplace_back(g->name(), g->p());
  }
  for (const auto& [label, n] : moduli) {
    AmmChecker amm(n, label);
    ASSERT_TRUE(amm.init());
    const size_t digits = (n.bit_length() - 1) / 52;  // K: 2^(52K) <= n
    const size_t mid = digits / 2;
    // Zero digits: the first row; isolated mid-multiply rows; a run of
    // three, so consecutive rows carry in through x0 and w with m = 0;
    // every row but the last of the K.
    std::vector<size_t> all_but_last(digits - 1);
    std::iota(all_but_last.begin(), all_but_last.end(), size_t{0});
    const std::vector<std::vector<size_t>> zero_sets = {
        {0}, {1, mid, digits - 1}, {mid - 1, mid, mid + 1}, all_but_last};
    for (size_t z = 0; z < zero_sets.size(); ++z) {
      std::vector<bool> zero(digits, false);
      for (const size_t d : zero_sets[z]) zero[d] = true;
      for (int rep = 0; rep < 3; ++rep) {
        BigInt m_low;
        for (size_t d = digits; d-- > 0;) {
          uint64_t digit = 0;
          if (!zero[d]) {
            do {
              digit = BigInt::from_bytes_be(rng.bytes(8)).low_u64() & kMask52;
            } while (digit == 0);
          }
          m_low = m_low.shl(52).add(BigInt(digit));
        }
        BigInt b = BigInt::from_bytes_be(rng.bytes(8 * n.limb_count()))
                       .mod(n);
        if (!b.is_odd()) b = b.add(BigInt(1));
        const size_t mod_bits = 52 * digits;
        const BigInt t =
            low_bits(m_low.mul(n).mul(inverse_mod_pow2(b, mod_bits)),
                     mod_bits);
        const BigInt a =
            t.is_zero() ? t : BigInt(1).shl(mod_bits).sub(t);
        // The construction did pick the kernel's digits.
        ASSERT_EQ(low_bits(amm.quotient(a, b), mod_bits), m_low)
            << label << " zero set " << z;
        ASSERT_LT(a, n) << label;
        amm.check_product(a, b);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace tenet::crypto
