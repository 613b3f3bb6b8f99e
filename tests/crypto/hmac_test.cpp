#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/rng.h"
#include "crypto/work.h"
#include "test_seed.h"

namespace tenet::crypto {
namespace {

// RFC 4231 test cases for HMAC-SHA256.
struct HmacVector {
  const char* name;
  const char* key_hex;
  const char* data;
  const char* mac_hex;
};

// Parameters print as their name. gtest would otherwise print the raw bytes
// of the struct, pointers included, and the ctest names derived from that
// output would change from run to run with the address-space layout.
void PrintTo(const HmacVector& v, std::ostream* os) { *os << v.name; }

class HmacKat : public ::testing::TestWithParam<HmacVector> {};

TEST_P(HmacKat, MatchesRfc4231) {
  const auto& v = GetParam();
  const Bytes key = std::string_view(v.key_hex) == "aa131"
                        ? Bytes(131, 0xaa)
                        : hex_decode(v.key_hex);
  const Digest mac = hmac_sha256(key, to_bytes(v.data));
  EXPECT_EQ(digest_hex(mac), v.mac_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc4231, HmacKat,
    ::testing::Values(
        HmacVector{"rfc4231_case1",
                   "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", "Hi There",
                   "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        HmacVector{"rfc4231_case2",
                   "4a656665",  // "Jefe"
                   "what do ya want for nothing?",
                   "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        HmacVector{"rfc4231_case6",
                   "aa131",  // expanded below: 131 bytes of 0xaa (RFC 4231 case 6)
                   "Test Using Larger Than Block-Size Key - Hash Key First",
                   "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"}));

TEST(Hmac, VerifyAcceptsAndRejects) {
  const Bytes key = to_bytes("secret key");
  const Bytes msg = to_bytes("attested message");
  const Digest mac = hmac_sha256(key, msg);
  EXPECT_TRUE(hmac_verify(key, msg, BytesView(mac.data(), mac.size())));

  Digest bad = mac;
  bad[0] ^= 1;
  EXPECT_FALSE(hmac_verify(key, msg, BytesView(bad.data(), bad.size())));
  EXPECT_FALSE(hmac_verify(to_bytes("wrong key"), msg,
                           BytesView(mac.data(), mac.size())));
}

TEST(Hmac, PartsEqualsConcatenation) {
  const Bytes key = to_bytes("k");
  const Bytes a = to_bytes("left");
  const Bytes b = to_bytes("right");
  Bytes ab = a;
  append(ab, b);
  EXPECT_EQ(hmac_sha256_parts(key, {BytesView(a), BytesView(b)}),
            hmac_sha256(key, ab));
}

// Data sizes from 0 B to 64 KB straddling the 64-byte block edges.
const std::vector<size_t> kDataSizes = {0,  1,   15,  16,   17,   63,  64,
                                        65, 256, 257, 1500, 4096, 65536};

TEST(Hmac, CachedKeyMatchesUncachedHmac) {
  Drbg rng = Drbg::from_label(tenet::test::seed(74), "hmac.cached");
  // Key lengths straddling the 64-byte pad boundary (>64 keys get hashed).
  for (const size_t key_len : {size_t{0}, size_t{1}, size_t{16}, size_t{32},
                               size_t{63}, size_t{64}, size_t{65},
                               size_t{100}}) {
    const Bytes key = rng.bytes(key_len);
    const HmacKey cached((BytesView(key)));
    for (const size_t n : kDataSizes) {
      const Bytes data = rng.bytes(n);
      EXPECT_EQ(cached.mac(data), hmac_sha256(key, data))
          << "key " << key_len << " data " << n;
    }
    const Bytes a = rng.bytes(13), b = rng.bytes(200);
    EXPECT_EQ(cached.mac_parts({a, b}), hmac_sha256_parts(key, {a, b}));
  }
}

TEST(Hmac, CachedKeyChargesCanonicalCost) {
  const Bytes key =
      Drbg::from_label(tenet::test::seed(75), "hmac.cached.cost").bytes(32);
  const HmacKey cached((BytesView(key)));
  for (const size_t n : kDataSizes) {
    const Bytes data =
        Drbg::from_label(tenet::test::seed(76) + n, "hmac.cached.data")
            .bytes(n);
    WorkCounters cached_cost, uncached_cost;
    {
      work::Scope meter(&cached_cost);
      (void)cached.mac(data);
    }
    {
      work::Scope meter(&uncached_cost);
      (void)hmac_sha256(key, data);
    }
    EXPECT_EQ(cached_cost.sha256_blocks, uncached_cost.sha256_blocks)
        << "size " << n;
  }
}

TEST(Hkdf, Rfc5869Case1) {
  // RFC 5869 A.1
  const Bytes ikm = hex_decode("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const Bytes salt = hex_decode("000102030405060708090a0b0c");
  const Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandLengths) {
  const Digest prk = hkdf_extract(to_bytes("salt"), to_bytes("ikm"));
  for (size_t len : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(hkdf_expand(prk, to_bytes("ctx"), len).size(), len);
  }
  // Prefix property: shorter output is a prefix of longer output.
  const Bytes long_out = hkdf_expand(prk, to_bytes("ctx"), 64);
  const Bytes short_out = hkdf_expand(prk, to_bytes("ctx"), 16);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
}

TEST(Hkdf, RejectsOversizedExpand) {
  const Digest prk = hkdf_extract(to_bytes("s"), to_bytes("i"));
  EXPECT_THROW(hkdf_expand(prk, to_bytes("ctx"), 255 * 32 + 1),
               std::invalid_argument);
}

TEST(Hkdf, DistinctInfoDistinctKeys) {
  const Digest prk = hkdf_extract(to_bytes("salt"), to_bytes("ikm"));
  EXPECT_NE(hkdf_expand(prk, to_bytes("client"), 32),
            hkdf_expand(prk, to_bytes("server"), 32));
}

}  // namespace
}  // namespace tenet::crypto
