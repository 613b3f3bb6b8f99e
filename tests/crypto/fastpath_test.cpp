// Equivalence and work-meter tests for the fast-path crypto kernels.
//
// The optimized paths (4-bit windowed Montgomery exponentiation, the
// radix-52 IFMA backend where the CPU has one, the fixed-base generator
// table, and AES on AES-NI) must be bit-identical to the straightforward
// reference algorithms and must charge the work meter for exactly the
// operations the window structure implies. Each equivalence suite runs
// >= 1000 seeded-DRBG inputs so a digit-indexing or carry bug cannot hide.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "crypto/rng.h"
#include "crypto/work.h"
#include "test_seed.h"

namespace tenet::crypto {
namespace {

// ---------------------------------------------------------------------------
// Windowed exponentiation vs. binary square-and-multiply
// ---------------------------------------------------------------------------

// Reference: left-to-right binary ladder over the public Montgomery API.
// This is the algorithm Montgomery::exp replaced; it exercises the scalar
// mul/sqr kernels only, so on IFMA machines it also cross-checks the
// radix-52 backend against the scalar one.
BigInt binary_exp(const Montgomery& m, const BigInt& base, const BigInt& e) {
  BigInt acc = m.to_mont(BigInt(1));
  const BigInt b = m.to_mont(base);
  for (size_t i = e.bit_length(); i-- > 0;) {
    acc = m.sqr(acc);
    if (e.bit(i)) acc = m.mul(acc, b);
  }
  return m.from_mont(acc);
}

BigInt random_odd_modulus(Drbg& rng, size_t bytes) {
  Bytes raw = rng.bytes(bytes);
  raw.front() |= 0x80;  // full advertised bit length
  raw.back() |= 0x01;   // odd
  return BigInt::from_bytes_be(raw);
}

TEST(FastPath, WindowedExpMatchesBinaryExpSmallModuli) {
  Drbg rng = Drbg::from_label(test::seed(61), "fastpath.exp.small");
  for (int iter = 0; iter < 1000; ++iter) {
    // 64..256-bit odd moduli: these stay on the scalar CIOS path.
    const size_t bytes = 8 + (rng.bytes(1)[0] % 25);
    const BigInt n = random_odd_modulus(rng, bytes);
    const Montgomery m(n);
    const BigInt base = BigInt::from_bytes_be(rng.bytes(bytes + 2)).mod(n);
    const BigInt e = BigInt::from_bytes_be(rng.bytes(bytes));
    EXPECT_EQ(m.exp(base, e), binary_exp(m, base, e)) << "iter " << iter;
  }
}

TEST(FastPath, WindowedExpMatchesBinaryExpLargeModuli) {
  // 768/1024/1536/2048-bit moduli: on AVX512-IFMA machines Montgomery::exp
  // runs on the radix-52 vector backend, so this compares that backend
  // against the scalar kernels end to end.
  Drbg rng = Drbg::from_label(test::seed(62), "fastpath.exp.large");
  for (const size_t bytes : {96, 128, 192, 256}) {
    for (int iter = 0; iter < 8; ++iter) {
      const BigInt n = random_odd_modulus(rng, bytes);
      const Montgomery m(n);
      const BigInt base = BigInt::from_bytes_be(rng.bytes(bytes)).mod(n);
      const BigInt e = BigInt::from_bytes_be(rng.bytes(bytes));
      EXPECT_EQ(m.exp(base, e), binary_exp(m, base, e))
          << bytes * 8 << "-bit iter " << iter;
    }
  }
}

TEST(FastPath, WindowedExpEdgeCases) {
  const BigInt n = BigInt::from_hex("0f123456789abcdef0123456789abcdef1");
  const Montgomery m(n);
  EXPECT_EQ(m.exp(BigInt(5), BigInt(0)), BigInt(1));
  EXPECT_EQ(m.exp(BigInt(5), BigInt(1)), BigInt(5));
  EXPECT_EQ(m.exp(BigInt(0), BigInt(7)), BigInt(0));
  EXPECT_EQ(m.exp(BigInt(1), BigInt::from_hex("ffffffffffffffff")), BigInt(1));
  // Exponent with zero digits in the middle (windows that skip the multiply).
  const BigInt e = BigInt::from_hex("f000000000000001");
  EXPECT_EQ(m.exp(BigInt(3), e), binary_exp(m, BigInt(3), e));
}

// ---------------------------------------------------------------------------
// Fixed-base table vs. generic modular exponentiation
// ---------------------------------------------------------------------------

TEST(FastPath, FixedBaseTableMatchesModExpRandomModuli) {
  Drbg rng = Drbg::from_label(test::seed(63), "fastpath.fixedbase.small");
  for (int iter = 0; iter < 1000; ++iter) {
    const BigInt n = random_odd_modulus(rng, 16);  // 128-bit
    const Montgomery m(n);
    const BigInt base = BigInt::from_bytes_be(rng.bytes(18)).mod(n);
    const FixedBaseTable table(m, base, 128);
    const BigInt e = BigInt::from_bytes_be(rng.bytes(16));
    EXPECT_EQ(table.power(e), BigInt::mod_exp(base, e, n)) << "iter " << iter;
  }
}

TEST(FastPath, DhGroupPowerMatchesModExp) {
  // The attestation handshake path: g^x through the group's cached table
  // must equal the generic ladder for the real 768/1024-bit groups.
  Drbg rng = Drbg::from_label(test::seed(64), "fastpath.fixedbase.group");
  for (const DhGroup* g :
       {&DhGroup::oakley_group1(), &DhGroup::oakley_group2()}) {
    for (int iter = 0; iter < 12; ++iter) {
      const BigInt x = BigInt::random_range(rng, BigInt(1), g->q());
      EXPECT_EQ(g->power(x), BigInt::mod_exp(g->g(), x, g->p()))
          << g->name() << " iter " << iter;
    }
  }
}

TEST(FastPath, FixedBaseTableOversizedExponentFallsBack) {
  const BigInt n = BigInt::from_hex("0f123456789abcdef0123456789abcdef1");
  const Montgomery m(n);
  const FixedBaseTable table(m, BigInt(7), 64);
  const BigInt e = BigInt::from_hex("01ffffffffffffffffff");  // > 64 bits
  EXPECT_EQ(table.power(e), m.exp(BigInt(7), e));
}

// ---------------------------------------------------------------------------
// Both AES backends (AES-NI and the portable reference) vs. an independent
// byte-wise reference
// ---------------------------------------------------------------------------

// Self-contained FIPS-197 reference implementation (S-box derived from the
// GF(2^8) inverse rather than a table literal, so it shares nothing with
// the production datapath).
struct RefAes {
  std::array<uint8_t, 256> sbox{};
  std::array<std::array<uint8_t, 16>, 11> rk{};

  static uint8_t gmul(uint8_t a, uint8_t b) {
    uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
      if (b & 1) p ^= a;
      const uint8_t hi = a & 0x80;
      a = static_cast<uint8_t>(a << 1);
      if (hi) a ^= 0x1b;
      b >>= 1;
    }
    return p;
  }

  // S-box: multiplicative inverse in GF(2^8) followed by the affine map,
  // computed once and shared across instances.
  static const std::array<uint8_t, 256>& make_sbox() {
    static const std::array<uint8_t, 256> t = [] {
      std::array<uint8_t, 256> out{};
      for (int x = 0; x < 256; ++x) {
        uint8_t inv = 0;
        for (int y = 1; y < 256; ++y) {
          if (gmul(static_cast<uint8_t>(x), static_cast<uint8_t>(y)) == 1) {
            inv = static_cast<uint8_t>(y);
            break;
          }
        }
        uint8_t s = 0;
        for (int bit = 0; bit < 8; ++bit) {
          const int b = ((inv >> bit) & 1) ^ ((inv >> ((bit + 4) % 8)) & 1) ^
                        ((inv >> ((bit + 5) % 8)) & 1) ^
                        ((inv >> ((bit + 6) % 8)) & 1) ^
                        ((inv >> ((bit + 7) % 8)) & 1) ^ ((0x63 >> bit) & 1);
          s |= static_cast<uint8_t>(b << bit);
        }
        out[static_cast<size_t>(x)] = s;
      }
      return out;
    }();
    return t;
  }

  explicit RefAes(const AesKey128& key) {
    sbox = make_sbox();
    uint8_t rcon = 1;
    rk[0] = key;
    for (int r = 1; r <= 10; ++r) {
      const auto& prev = rk[static_cast<size_t>(r - 1)];
      auto& out = rk[static_cast<size_t>(r)];
      out[0] = static_cast<uint8_t>(prev[0] ^ sbox[prev[13]] ^ rcon);
      out[1] = static_cast<uint8_t>(prev[1] ^ sbox[prev[14]]);
      out[2] = static_cast<uint8_t>(prev[2] ^ sbox[prev[15]]);
      out[3] = static_cast<uint8_t>(prev[3] ^ sbox[prev[12]]);
      for (int i = 4; i < 16; ++i) {
        out[static_cast<size_t>(i)] =
            static_cast<uint8_t>(prev[static_cast<size_t>(i)] ^
                                 out[static_cast<size_t>(i - 4)]);
      }
      rcon = gmul(rcon, 2);
    }
  }

  void encrypt(AesBlock& b) const {
    auto ark = [&](int r) {
      for (int i = 0; i < 16; ++i)
        b[static_cast<size_t>(i)] ^= rk[static_cast<size_t>(r)][static_cast<size_t>(i)];
    };
    auto round = [&](bool mix) {
      for (auto& v : b) v = sbox[v];
      AesBlock t = b;
      for (int r = 1; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
          b[static_cast<size_t>(r + 4 * c)] =
              t[static_cast<size_t>(r + 4 * ((c + r) % 4))];
      if (!mix) return;
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = &b[static_cast<size_t>(4 * c)];
        const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<uint8_t>(gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3);
        col[1] = static_cast<uint8_t>(a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3);
        col[2] = static_cast<uint8_t>(a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3));
        col[3] = static_cast<uint8_t>(gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2));
      }
    };
    ark(0);
    for (int r = 1; r <= 9; ++r) {
      round(true);
      ark(r);
    }
    round(false);
    ark(10);
  }

  // CTR keystream XOR: [nonce BE64 | counter BE64] blocks, the counter
  // wrapping mod 2^64 without touching the nonce half.
  void ctr_xor(uint64_t nonce, uint64_t counter, uint8_t* data,
               size_t len) const {
    for (size_t off = 0; off < len; off += 16, ++counter) {
      AesBlock ks{};
      for (size_t i = 0; i < 8; ++i) {
        ks[i] = static_cast<uint8_t>(nonce >> (56 - 8 * i));
        ks[8 + i] = static_cast<uint8_t>(counter >> (56 - 8 * i));
      }
      encrypt(ks);
      for (size_t i = 0; i < 16 && off + i < len; ++i) data[off + i] ^= ks[i];
    }
  }
};

/// Forces an AES backend for one scope and restores the previous on exit.
class BackendScope {
 public:
  explicit BackendScope(mb::Backend b) : prev_(mb::set_backend(b)) {}
  ~BackendScope() { mb::set_backend(prev_); }

 private:
  mb::Backend prev_;
};

AesKey128 key_from(BytesView b) {
  AesKey128 k{};
  std::copy(b.begin(), b.begin() + 16, k.begin());
  return k;
}

TEST(FastPath, AesMatchesFips197Vector) {
  const AesKey128 key = key_from(
      BigInt::from_hex("000102030405060708090a0b0c0d0e0f").to_bytes_be(16));
  const Bytes pt =
      BigInt::from_hex("00112233445566778899aabbccddeeff").to_bytes_be(16);
  for (const mb::Backend b : {mb::Backend::kScalar, mb::Backend::kBatched}) {
    BackendScope scope(b);
    AesBlock block{};
    std::copy(pt.begin(), pt.end(), block.begin());
    Aes128(key).encrypt_block(block);
    EXPECT_EQ(BigInt::from_bytes_be(block).to_hex(),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
  }
}

// encrypt_block on `backend` (key expanded on that backend too) against
// RefAes and, for AES-NI, against the forced-portable path; decrypt_block
// must invert it.
void expect_blocks_match_reference(mb::Backend backend, uint64_t seed) {
  Drbg rng = Drbg::from_label(seed, "fastpath.aes.random");
  for (int iter = 0; iter < 1000; ++iter) {
    const AesKey128 key = key_from(rng.bytes(16));
    const Bytes pt = rng.bytes(16);
    AesBlock fast{}, ref{}, portable{};
    std::copy(pt.begin(), pt.end(), fast.begin());
    ref = portable = fast;
    {
      BackendScope scope(mb::Backend::kScalar);
      Aes128(key).encrypt_block(portable);
    }
    BackendScope scope(backend);
    const Aes128 aes(key);
    aes.encrypt_block(fast);
    RefAes(key).encrypt(ref);
    EXPECT_EQ(fast, ref) << "iter " << iter;
    EXPECT_EQ(fast, portable) << "iter " << iter;
    AesBlock back = fast;
    aes.decrypt_block(back);
    EXPECT_EQ(Bytes(back.begin(), back.end()), pt) << "iter " << iter;
  }
}

TEST(FastPath, AesPortableMatchesReference) {
  expect_blocks_match_reference(mb::Backend::kScalar, test::seed(65));
}

TEST(FastPath, AesAesniMatchesReference) {
  if (!mb::aesni_available()) GTEST_SKIP() << "no AES-NI on this CPU";
  expect_blocks_match_reference(mb::Backend::kBatched, test::seed(65));
}

// ctr_xor on `backend` at every length 0..80 plus 4096 and 65536, random
// keys and counter blocks, against RefAes and the forced-portable path;
// then a counter that wraps past 2^64 (the nonce half must not carry).
void expect_ctr_matches_reference(mb::Backend backend, uint64_t seed) {
  Drbg rng = Drbg::from_label(seed, "fastpath.aes.ctr.ref");
  std::vector<size_t> lens;
  for (size_t n = 0; n <= 80; ++n) lens.push_back(n);
  lens.push_back(4096);
  lens.push_back(65536);
  for (const size_t len : lens) {
    const AesKey128 key = key_from(rng.bytes(16));
    const uint64_t nonce = rng.next_u64();
    const uint64_t ctr = rng.next_u64();
    const Bytes data = rng.bytes(len);
    Bytes ref = data, portable = data, fast = data;
    RefAes(key).ctr_xor(nonce, ctr, ref.data(), ref.size());
    {
      BackendScope scope(mb::Backend::kScalar);
      Aes128(key).ctr_xor(nonce, ctr, portable.data(), portable.size());
    }
    BackendScope scope(backend);
    Aes128(key).ctr_xor(nonce, ctr, fast.data(), fast.size());
    EXPECT_EQ(fast, ref) << "len " << len;
    EXPECT_EQ(fast, portable) << "len " << len;
  }

  const AesKey128 key = key_from(rng.bytes(16));
  const uint64_t nonce = 0x0123456789abcdefull;
  const uint64_t start = ~uint64_t{0} - 2;  // 2^64 - 3: five blocks wrap
  BackendScope scope(backend);
  const Aes128 aes(key);
  Bytes wrapped(5 * 16, 0);
  aes.ctr_xor(nonce, start, wrapped.data(), wrapped.size());
  Bytes expected(5 * 16, 0);
  RefAes(key).ctr_xor(nonce, start, expected.data(), expected.size());
  EXPECT_EQ(wrapped, expected);
  // Blocks 3 and 4 are counters 0 and 1 under the same nonce.
  Bytes after_wrap(2 * 16, 0);
  aes.ctr_xor(nonce, 0, after_wrap.data(), after_wrap.size());
  EXPECT_EQ(Bytes(wrapped.begin() + 48, wrapped.end()), after_wrap);
}

TEST(FastPath, CtrPortableMatchesReference) {
  expect_ctr_matches_reference(mb::Backend::kScalar, test::seed(70));
}

TEST(FastPath, CtrAesniMatchesReference) {
  if (!mb::aesni_available()) GTEST_SKIP() << "no AES-NI on this CPU";
  expect_ctr_matches_reference(mb::Backend::kBatched, test::seed(70));
}

TEST(FastPath, CtrMatchesNistSp80038aVector) {
  // NIST SP 800-38A F.5.1 (AES-128-CTR): the standard's initial counter
  // block f0f1...feff maps onto our (nonce, counter) split as the first and
  // second big-endian 8-byte halves.
  const AesKey128 key = key_from(
      BigInt::from_hex("2b7e151628aed2a6abf7158809cf4f3c").to_bytes_be(16));
  const Bytes pt = BigInt::from_hex(
                       "6bc1bee22e409f96e93d7e117393172a"
                       "ae2d8a571e03ac9c9eb76fac45af8e51"
                       "30c81c46a35ce411e5fbc1191a0a52ef"
                       "f69f2445df4f9b17ad2b417be66c3710")
                       .to_bytes_be(64);
  const Bytes ct =
      Aes128(key).ctr_crypt(0xf0f1f2f3f4f5f6f7ull, 0xf8f9fafbfcfdfeffull, pt);
  EXPECT_EQ(BigInt::from_bytes_be(ct).to_hex(),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(FastPath, CtrXorIsInPlaceCtrCrypt) {
  Drbg rng = Drbg::from_label(test::seed(66), "fastpath.aes.ctr");
  for (int iter = 0; iter < 200; ++iter) {
    const Aes128 aes(key_from(rng.bytes(16)));
    const size_t len = 1 + rng.bytes(1)[0];  // 1..256, exercises tails
    const Bytes data = rng.bytes(len);
    const uint64_t nonce = BigInt::from_bytes_be(rng.bytes(8)).low_u64();
    const uint64_t ctr = BigInt::from_bytes_be(rng.bytes(8)).low_u64();
    Bytes in_place = data;
    aes.ctr_xor(nonce, ctr, in_place.data(), in_place.size());
    EXPECT_EQ(in_place, aes.ctr_crypt(nonce, ctr, data)) << "iter " << iter;
    // XOR keystream twice = identity.
    aes.ctr_xor(nonce, ctr, in_place.data(), in_place.size());
    EXPECT_EQ(in_place, data) << "iter " << iter;
  }
}

// ---------------------------------------------------------------------------
// Work-meter cross-checks
// ---------------------------------------------------------------------------

uint64_t digit(const BigInt& e, size_t w) {
  return (e.bit(4 * w) ? 1u : 0u) | (e.bit(4 * w + 1) ? 2u : 0u) |
         (e.bit(4 * w + 2) ? 4u : 0u) | (e.bit(4 * w + 3) ? 8u : 0u);
}

// Predicts Montgomery::exp's limb_muladds from the window structure of e:
// one domain-entry multiply, 14 table-build multiplies, 4 squarings per
// window below the top, one multiply per non-zero digit below the top, and
// one domain-exit multiply. Both the scalar and IFMA backends charge these
// canonical CIOS costs, so the prediction is machine-independent.
uint64_t predict_exp_cost(size_t k, const BigInt& e) {
  const uint64_t c_mul = 2 * static_cast<uint64_t>(k) * k + 2 * k;
  const uint64_t c_sqr =
      static_cast<uint64_t>(k) * (k + 1) / 2 + static_cast<uint64_t>(k) * k + k;
  const size_t nwin = (e.bit_length() + 3) / 4;
  uint64_t nonzero_below_top = 0;
  for (size_t w = 0; w + 1 < nwin; ++w) {
    if (digit(e, w) != 0) ++nonzero_below_top;
  }
  return c_mul * (16 + nonzero_below_top) + 4 * c_sqr * (nwin - 1);
}

TEST(FastPath, ExpChargesExactlyTheWindowedOperationCount) {
  Drbg rng = Drbg::from_label(test::seed(67), "fastpath.meter.exp");
  // 1024-bit group modulus (IFMA backend where available) and a 128-bit
  // modulus (always scalar): identical formula must hold on both.
  const BigInt small_n = random_odd_modulus(rng, 16);
  const std::vector<const BigInt*> moduli = {&DhGroup::oakley_group2().p(),
                                             &small_n};
  for (const BigInt* n : moduli) {
    const Montgomery m(*n);
    for (int iter = 0; iter < 20; ++iter) {
      const BigInt base = BigInt::from_bytes_be(rng.bytes(16)).mod(*n);
      const BigInt e = BigInt::from_bytes_be(
          rng.bytes(1 + rng.bytes(1)[0] % (n->bit_length() / 8)));
      if (e.is_zero()) continue;
      WorkCounters wc;
      work::Scope scope(&wc);
      (void)m.exp(base, e);
      EXPECT_EQ(wc.limb_muladds, predict_exp_cost(m.limbs(), e))
          << n->bit_length() << "-bit modulus, iter " << iter;
    }
  }
}

TEST(FastPath, FixedBasePowerChargesOneMultiplyPerNonzeroDigit) {
  Drbg rng = Drbg::from_label(test::seed(68), "fastpath.meter.fixedbase");
  const DhGroup& g = DhGroup::oakley_group2();
  const uint64_t c_mul =
      2 * static_cast<uint64_t>(16) * 16 + 2 * 16;  // k = 16 limbs
  for (int iter = 0; iter < 20; ++iter) {
    const BigInt x = BigInt::random_range(rng, BigInt(1), g.q());
    uint64_t nonzero = 0;
    for (size_t w = 0; w < (x.bit_length() + 3) / 4; ++w) {
      if (digit(x, w) != 0) ++nonzero;
    }
    WorkCounters wc;
    work::Scope scope(&wc);
    (void)g.power(x);
    // One multiply per non-zero digit plus the domain exit; no squarings.
    EXPECT_EQ(wc.limb_muladds, c_mul * (nonzero + 1)) << "iter " << iter;
  }
}

TEST(FastPath, CtrChargesOneBlockPer16Bytes) {
  Drbg rng = Drbg::from_label(test::seed(69), "fastpath.meter.ctr");
  const Aes128 aes(key_from(rng.bytes(16)));
  for (const size_t len : {1u, 15u, 16u, 17u, 160u, 1500u}) {
    const Bytes data = rng.bytes(len);
    WorkCounters wc;
    work::Scope scope(&wc);
    (void)aes.ctr_crypt(7, 9, data);
    EXPECT_EQ(wc.aes_blocks, (len + 15) / 16) << "len " << len;
  }
}

}  // namespace
}  // namespace tenet::crypto
