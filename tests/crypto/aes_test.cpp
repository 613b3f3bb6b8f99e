#include "crypto/aes.h"

#include <gtest/gtest.h>

#include "crypto/rng.h"
#include "crypto/work.h"
#include "test_seed.h"

namespace tenet::crypto {
namespace {

AesKey128 key_from_hex(std::string_view hex) {
  const Bytes b = hex_decode(hex);
  AesKey128 k{};
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

AesBlock block_from_hex(std::string_view hex) {
  const Bytes b = hex_decode(hex);
  AesBlock blk{};
  std::copy(b.begin(), b.end(), blk.begin());
  return blk;
}

// FIPS-197 Appendix C.1 and NIST SP 800-38A F.1.1 vectors.
struct AesVector {
  const char* name;
  const char* key;
  const char* plaintext;
  const char* ciphertext;
};

// Parameters print as their name. gtest would otherwise print the raw bytes
// of the struct, pointers included, and the ctest names derived from that
// output would change from run to run with the address-space layout.
void PrintTo(const AesVector& v, std::ostream* os) { *os << v.name; }

class AesKat : public ::testing::TestWithParam<AesVector> {};

TEST_P(AesKat, EncryptMatches) {
  const auto& v = GetParam();
  const Aes128 aes(key_from_hex(v.key));
  AesBlock b = block_from_hex(v.plaintext);
  aes.encrypt_block(b);
  EXPECT_EQ(hex_encode(BytesView(b.data(), b.size())), v.ciphertext);
}

TEST_P(AesKat, DecryptInverts) {
  const auto& v = GetParam();
  const Aes128 aes(key_from_hex(v.key));
  AesBlock b = block_from_hex(v.ciphertext);
  aes.decrypt_block(b);
  EXPECT_EQ(hex_encode(BytesView(b.data(), b.size())), v.plaintext);
}

INSTANTIATE_TEST_SUITE_P(
    NistVectors, AesKat,
    ::testing::Values(
        AesVector{"fips197_c1",
                  "000102030405060708090a0b0c0d0e0f",
                  "00112233445566778899aabbccddeeff",
                  "69c4e0d86a7b0430d8cdb78070b4c55a"},
        AesVector{"sp800_38a_ecb_block1",
                  "2b7e151628aed2a6abf7158809cf4f3c",
                  "6bc1bee22e409f96e93d7e117393172a",
                  "3ad77bb40d7a3660a89ecaf32466ef97"},
        AesVector{"sp800_38a_ecb_block2",
                  "2b7e151628aed2a6abf7158809cf4f3c",
                  "ae2d8a571e03ac9c9eb76fac45af8e51",
                  "f5d3d58503b9699de785895a96fdbaaf"},
        AesVector{"sp800_38a_ecb_block3",
                  "2b7e151628aed2a6abf7158809cf4f3c",
                  "30c81c46a35ce411e5fbc1191a0a52ef",
                  "43b1cd7f598ece23881b00e3ed030688"}));

TEST(Aes, EcbRoundTripMultiBlock) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes pt(64, 0x3c);
  EXPECT_EQ(aes.ecb_decrypt(aes.ecb_encrypt(pt)), pt);
}

TEST(Aes, EcbRejectsPartialBlocks) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_THROW(aes.ecb_encrypt(Bytes(15, 0)), std::invalid_argument);
  EXPECT_THROW(aes.ecb_decrypt(Bytes(17, 0)), std::invalid_argument);
}

class AesPaddedRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(AesPaddedRoundTrip, AnyLength) {
  const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  Bytes pt(GetParam());
  for (size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<uint8_t>(i * 7);
  const Bytes ct = aes.ecb_encrypt_padded(pt);
  EXPECT_EQ(ct.size() % 16, 0u);
  EXPECT_GT(ct.size(), pt.size());
  EXPECT_EQ(aes.ecb_decrypt_padded(ct), pt);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AesPaddedRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 100, 1500));

TEST(Aes, PaddedDecryptRejectsCorruptPadding) {
  const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  Bytes ct = aes.ecb_encrypt_padded(to_bytes("hello"));
  ct.back() ^= 0xff;  // corrupt last ciphertext byte -> garbage padding
  EXPECT_THROW(aes.ecb_decrypt_padded(ct), std::invalid_argument);
}

TEST(Aes, CtrRoundTripAndSymmetry) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes pt(1500);
  for (size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<uint8_t>(i);
  const Bytes ct = aes.ctr_crypt(/*nonce=*/77, /*counter=*/0, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(aes.ctr_crypt(77, 0, ct), pt);  // same op decrypts
}

TEST(Aes, CtrDifferentNonceDifferentKeystream) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes pt(64, 0);
  EXPECT_NE(aes.ctr_crypt(1, 0, pt), aes.ctr_crypt(2, 0, pt));
  EXPECT_NE(aes.ctr_crypt(1, 0, pt), aes.ctr_crypt(1, 4, pt));
}

TEST(Aes, WorkMeterCountsBlocksAndSchedules) {
  WorkCounters wc;
  work::Scope scope(&wc);
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(wc.aes_key_schedules, 1u);
  (void)aes.ecb_encrypt(Bytes(160, 0));
  EXPECT_EQ(wc.aes_blocks, 10u);
}

TEST(Aes, AesniKeyScheduleMatchesPortable) {
  if (!mb::aesni_available()) GTEST_SKIP() << "no AES-NI on this CPU";
  Drbg rng = Drbg::from_label(tenet::test::seed(82), "aes.schedule");
  for (int iter = 0; iter < 256; ++iter) {
    AesKey128 key{};
    const Bytes b = rng.bytes(16);
    std::copy(b.begin(), b.end(), key.begin());
    const mb::Backend prev = mb::set_backend(mb::Backend::kScalar);
    const Aes128 portable(key);
    mb::set_backend(mb::Backend::kBatched);
    WorkCounters wc;
    {
      work::Scope scope(&wc);
      const Aes128 aesni(key);
      EXPECT_EQ(aesni.round_key_bytes(), portable.round_key_bytes())
          << "iter " << iter;
    }
    mb::set_backend(prev);
    EXPECT_EQ(wc.aes_key_schedules, 1u);
  }
}

}  // namespace
}  // namespace tenet::crypto
