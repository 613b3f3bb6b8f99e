#include "crypto/aead.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <span>
#include <vector>

#include "crypto/rng.h"
#include "crypto/work.h"
#include "test_seed.h"

namespace tenet::crypto {
namespace {

Bytes test_key(uint8_t tag = 0) {
  Bytes k(Aead::kKeySize, 0);
  for (size_t i = 0; i < k.size(); ++i) k[i] = static_cast<uint8_t>(i ^ tag);
  return k;
}

TEST(Aead, SealOpenRoundTrip) {
  const Aead aead(test_key());
  const Bytes pt = to_bytes("policy submission from AS 7018");
  const Bytes record = aead.seal(1, 0, pt);
  const auto opened = aead.open(record);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

class AeadLengths : public ::testing::TestWithParam<size_t> {};

TEST_P(AeadLengths, RoundTripsEveryLength) {
  const Aead aead(test_key());
  Drbg rng = Drbg::from_label(41, "aead.len");
  const Bytes pt = rng.bytes(GetParam());
  const Bytes record = aead.seal(9, 3, pt);
  EXPECT_EQ(record.size(), pt.size() + Aead::kOverhead);
  const auto opened = aead.open(record);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AeadLengths,
                         ::testing::Values(0, 1, 15, 16, 17, 512, 1500, 4096));

TEST(Aead, RejectsWrongKey) {
  const Aead good(test_key());
  const Aead bad(test_key(0xff));
  const Bytes record = good.seal(1, 0, to_bytes("secret"));
  EXPECT_FALSE(bad.open(record).has_value());
}

TEST(Aead, RejectsBitFlipAnywhere) {
  const Aead aead(test_key());
  const Bytes record = aead.seal(1, 0, to_bytes("integrity matters"));
  for (size_t i = 0; i < record.size(); ++i) {
    Bytes tampered = record;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(aead.open(tampered).has_value()) << "byte " << i;
  }
}

TEST(Aead, RejectsTruncation) {
  const Aead aead(test_key());
  const Bytes record = aead.seal(1, 0, to_bytes("some payload"));
  for (size_t keep = 0; keep < record.size(); ++keep) {
    EXPECT_FALSE(aead.open(BytesView(record.data(), keep)).has_value());
  }
}

TEST(Aead, AadIsAuthenticated) {
  const Aead aead(test_key());
  const Bytes record = aead.seal(1, 0, to_bytes("body"), to_bytes("header-A"));
  EXPECT_TRUE(aead.open(record, to_bytes("header-A")).has_value());
  EXPECT_FALSE(aead.open(record, to_bytes("header-B")).has_value());
  EXPECT_FALSE(aead.open(record).has_value());
}

TEST(Aead, DistinctSequenceNumbersDistinctCiphertexts) {
  const Aead aead(test_key());
  const Bytes pt(64, 0x00);
  const Bytes r0 = aead.seal(1, 0, pt);
  const Bytes r1 = aead.seal(1, 1, pt);
  // Strip headers and compare ciphertext bodies.
  EXPECT_NE(Bytes(r0.begin() + 16, r0.end() - 16),
            Bytes(r1.begin() + 16, r1.end() - 16));
}

TEST(Aead, RecordSeqExtraction) {
  const Aead aead(test_key());
  const Bytes record = aead.seal(5, 42, to_bytes("x"));
  EXPECT_EQ(Aead::record_seq(record), 42u);
}

TEST(Aead, RejectsBadKeySize) {
  EXPECT_THROW(Aead(Bytes(16, 0)), std::invalid_argument);
  EXPECT_THROW(Aead(Bytes(33, 0)), std::invalid_argument);
}

/// Forces an AES backend for one scope and restores the previous on exit.
class BackendScope {
 public:
  explicit BackendScope(mb::Backend b) : prev_(mb::set_backend(b)) {}
  ~BackendScope() { mb::set_backend(prev_); }

 private:
  mb::Backend prev_;
};

// Sizes covering 0 B to 64 KB with ragged block edges, so the AES-NI CTR
// kernel's 4-wide main loop, 1-wide loop and sub-block tail all run.
const std::vector<size_t> kRecordSizes = {0,  1,   15,  16,   17,   63,  64,
                                          65, 256, 257, 1500, 4096, 65536};

TEST(Aead, SealIntoMatchesSealEverySize) {
  const Aead aead(test_key());
  Drbg rng = Drbg::from_label(tenet::test::seed(79), "aead.seal_into");

  std::vector<Bytes> plains;
  for (const size_t n : kRecordSizes) plains.push_back(rng.bytes(n));

  // Reference: copying seal() on the portable AES.
  std::vector<Bytes> expected;
  {
    BackendScope scope(mb::Backend::kScalar);
    for (size_t i = 0; i < plains.size(); ++i) {
      expected.push_back(aead.seal(0xAB, i, plains[i]));
    }
  }

  // seal_into() on the default (AES-NI) backend, into preallocated buffers.
  std::vector<Bytes> actual;
  for (size_t i = 0; i < plains.size(); ++i) {
    actual.emplace_back(Aead::sealed_size(plains[i].size()));
    aead.seal_into(0xAB, i, plains[i], BytesView{}, actual.back());
  }
  EXPECT_EQ(actual, expected);

  for (size_t i = 0; i < actual.size(); ++i) {
    const auto opened = aead.open(actual[i]);
    ASSERT_TRUE(opened.has_value()) << "record " << i;
    EXPECT_EQ(*opened, plains[i]);
  }
  EXPECT_THROW(aead.seal_into(0xAB, 0, plains[3], BytesView{}, actual[2]),
               std::invalid_argument);
}

// ⌈len/16⌉ AES blocks per record: the one canonical CTR charge.
uint64_t ctr_blocks(std::initializer_list<size_t> lens) {
  uint64_t total = 0;
  for (const size_t n : lens) total += (n + 15) / 16;
  return total;
}

// Canonical HMAC-SHA256 blocks for one record MAC over `msg_len` bytes:
// the ipad block plus the padded message, then the opad block plus the
// padded 32-byte inner digest.
uint64_t hmac_blocks(size_t msg_len) {
  return (64 + msg_len + 9 + 63) / 64 + 2;
}

TEST(Aead, SealIntoAndOpenInPlaceChargeCanonicalCost) {
  const Aead aead(test_key(3));
  Drbg rng = Drbg::from_label(tenet::test::seed(80), "aead.cost");
  const std::initializer_list<size_t> lens = {1, 64, 1500};
  std::vector<Bytes> plains;
  for (const size_t n : lens) plains.push_back(rng.bytes(n));
  uint64_t expect_sha = 0;
  for (const size_t n : lens) expect_sha += hmac_blocks(Aead::kHeaderSize + n);

  WorkCounters into_cost, portable_cost, open_cost, in_place_cost;
  std::vector<Bytes> out;
  for (const Bytes& p : plains) out.emplace_back(Aead::sealed_size(p.size()));
  {
    work::Scope meter(&into_cost);
    for (size_t i = 0; i < plains.size(); ++i) {
      aead.seal_into(1, i, plains[i], BytesView{}, out[i]);
    }
  }
  {
    work::Scope meter(&portable_cost);
    BackendScope scope(mb::Backend::kScalar);
    for (size_t i = 0; i < plains.size(); ++i) (void)aead.seal(1, i, plains[i]);
  }
  {
    work::Scope meter(&open_cost);
    for (const Bytes& record : out) ASSERT_TRUE(aead.open(record).has_value());
  }
  {
    work::Scope meter(&in_place_cost);
    for (Bytes& record : out) {
      ASSERT_TRUE(aead.open_in_place(std::span<uint8_t>(record)).has_value());
    }
  }
  for (const WorkCounters* cost :
       {&into_cost, &portable_cost, &open_cost, &in_place_cost}) {
    EXPECT_EQ(cost->aes_blocks, ctr_blocks(lens));
    EXPECT_EQ(cost->aes_key_schedules, 0u);
    EXPECT_EQ(cost->sha256_blocks, expect_sha);
  }
  EXPECT_EQ(into_cost.bytes_moved, portable_cost.bytes_moved);
}

TEST(Aead, OpenInPlaceMatchesOpen) {
  const Aead aead(test_key(5));
  Drbg rng = Drbg::from_label(tenet::test::seed(81), "aead.open_in_place");
  for (const size_t n : kRecordSizes) {
    const Bytes plain = rng.bytes(n);
    const Bytes record = aead.seal(2, 7, plain);

    Bytes in_place = record;
    const auto len = aead.open_in_place(std::span<uint8_t>(in_place));
    ASSERT_TRUE(len.has_value()) << "size " << n;
    EXPECT_EQ(*len, plain.size());
    EXPECT_EQ(Bytes(in_place.begin() + Aead::kHeaderSize,
                    in_place.begin() + Aead::kHeaderSize +
                        static_cast<ptrdiff_t>(*len)),
              plain);
    EXPECT_EQ(aead.open(record), plain);

    // Tampered record: both opens reject, and the buffer is untouched.
    Bytes tampered = record;
    tampered[tampered.size() / 2] ^= 1;
    const Bytes before = tampered;
    EXPECT_FALSE(aead.open_in_place(std::span<uint8_t>(tampered)).has_value());
    EXPECT_EQ(tampered, before);
    EXPECT_FALSE(aead.open(tampered).has_value());
  }
}

}  // namespace
}  // namespace tenet::crypto
