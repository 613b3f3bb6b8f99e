// Multi-buffer equivalence (DESIGN.md §13): the batched AES-CTR / HMAC
// paths and the cached-midstate HmacKey must be byte-identical to the
// single-buffer primitives at every size — including ragged batches — on
// both AES backends (AES-NI and the portable reference), and must charge
// exactly the canonical work, or the PR3/PR5/PR6 replay and
// cost-attribution invariants break silently.
#include "crypto/multibuf.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <vector>

#include "crypto/aead.h"
#include "crypto/rng.h"
#include "crypto/work.h"
#include "test_seed.h"

namespace tenet::crypto {
namespace {

/// Forces an AES backend for one scope and restores the previous on exit.
class BackendScope {
 public:
  explicit BackendScope(mb::Backend b) : prev_(mb::set_backend(b)) {}
  ~BackendScope() { mb::set_backend(prev_); }

 private:
  mb::Backend prev_;
};

Bytes aead_key(uint8_t tag = 0) {
  Bytes k(Aead::kKeySize, 0);
  for (size_t i = 0; i < k.size(); ++i) k[i] = static_cast<uint8_t>(i ^ tag);
  return k;
}

// Sizes covering the 1B→64KB span with block-boundary ragged edges (the AES-NI kernel's 4-wide main loop, 1-wide loop, and sub-block
// tail all get exercised).
const std::vector<size_t> kRecordSizes = {0,  1,   15,  16,   17,   63,  64,
                                          65, 256, 257, 1500, 4096, 65536};

TEST(MultiBuf, CtrBatchMatchesScalarEverySize) {
  const Aes128 key(AesKey128{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                             15, 16});
  Drbg rng = Drbg::from_label(tenet::test::seed(71), "mb.ctr");
  for (const size_t n : kRecordSizes) {
    const Bytes plain = rng.bytes(n);
    const uint64_t nonce = rng.next_u64();
    const uint64_t counter = rng.next_u64() >> 8;

    Bytes batched = plain;
    Bytes scalar = plain;
    const mb::CtrJob job_b{nonce, counter, batched.data(), batched.size()};
    const mb::CtrJob job_s{nonce, counter, scalar.data(), scalar.size()};
    {
      BackendScope scope(mb::Backend::kBatched);
      mb::ctr_xor_batch(key, std::span<const mb::CtrJob>(&job_b, 1));
    }
    {
      BackendScope scope(mb::Backend::kScalar);
      mb::ctr_xor_batch(key, std::span<const mb::CtrJob>(&job_s, 1));
    }
    EXPECT_EQ(batched, scalar) << "size " << n;

    // And both must match the original single-buffer primitive.
    Bytes direct = plain;
    key.ctr_xor(nonce, counter, direct.data(), direct.size());
    EXPECT_EQ(batched, direct) << "size " << n;
  }
}

TEST(MultiBuf, CtrRaggedBatch) {
  const Aes128 key(AesKey128{9, 9, 9, 9, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3});
  Drbg rng = Drbg::from_label(tenet::test::seed(72), "mb.ragged");

  std::vector<Bytes> batched, scalar;
  for (const size_t n : kRecordSizes) {
    const Bytes plain = rng.bytes(n);
    batched.push_back(plain);
    scalar.push_back(plain);
  }
  std::vector<mb::CtrJob> jobs_b, jobs_s;
  for (size_t i = 0; i < batched.size(); ++i) {
    const uint64_t nonce = 0x1000 + i;
    jobs_b.push_back(mb::CtrJob{nonce, i, batched[i].data(), batched[i].size()});
    jobs_s.push_back(mb::CtrJob{nonce, i, scalar[i].data(), scalar[i].size()});
  }
  {
    BackendScope scope(mb::Backend::kBatched);
    mb::ctr_xor_batch(key, jobs_b);
  }
  {
    BackendScope scope(mb::Backend::kScalar);
    mb::ctr_xor_batch(key, jobs_s);
  }
  EXPECT_EQ(batched, scalar);
}

// ⌈len/16⌉ per CTR job: the one canonical AES charge.
uint64_t ctr_blocks(std::initializer_list<size_t> lens) {
  uint64_t total = 0;
  for (const size_t n : lens) total += (n + 15) / 16;
  return total;
}

// Canonical HMAC-SHA256 blocks for one record MAC over `msg_len` bytes:
// the ipad block plus the padded message, then the opad block plus the
// padded 32-byte inner digest.
uint64_t hmac_blocks(size_t msg_len) { return (64 + msg_len + 9 + 63) / 64 + 2; }

TEST(MultiBuf, CtrBatchChargesCanonicalCost) {
  const Aes128 key(AesKey128{});
  Drbg rng = Drbg::from_label(tenet::test::seed(73), "mb.cost");
  const std::initializer_list<size_t> lens = {1, 16, 17, 1500};
  std::vector<Bytes> bufs;
  std::vector<mb::CtrJob> jobs;
  for (const size_t n : lens) {
    bufs.push_back(rng.bytes(n));
    jobs.push_back(mb::CtrJob{7, 0, bufs.back().data(), bufs.back().size()});
  }

  // Absolute totals, not batched == scalar: both backends run through
  // Aes128::ctr_xor, so a double charge would show on both sides alike.
  for (const mb::Backend b : {mb::Backend::kBatched, mb::Backend::kScalar}) {
    WorkCounters cost;
    {
      work::Scope meter(&cost);
      BackendScope scope(b);
      mb::ctr_xor_batch(key, jobs);
    }
    EXPECT_EQ(cost.aes_blocks, ctr_blocks(lens));
    EXPECT_EQ(cost.aes_key_schedules, 0u);
    EXPECT_EQ(cost.sha256_blocks, 0u);
  }
}

TEST(MultiBuf, HmacKeyMatchesUncachedHmac) {
  Drbg rng = Drbg::from_label(tenet::test::seed(74), "mb.hmac");
  // Key lengths straddling the 64-byte pad boundary (>64 keys get hashed).
  for (const size_t key_len : {size_t{0}, size_t{1}, size_t{16}, size_t{32},
                               size_t{63}, size_t{64}, size_t{65},
                               size_t{100}}) {
    const Bytes key = rng.bytes(key_len);
    const HmacKey cached((BytesView(key)));
    for (const size_t n : kRecordSizes) {
      const Bytes data = rng.bytes(n);
      EXPECT_EQ(cached.mac(data), hmac_sha256(key, data))
          << "key " << key_len << " data " << n;
    }
    const Bytes a = rng.bytes(13), b = rng.bytes(200);
    EXPECT_EQ(cached.mac_parts({a, b}), hmac_sha256_parts(key, {a, b}));
  }
}

TEST(MultiBuf, HmacKeyChargesCanonicalCost) {
  const Bytes key = Drbg::from_label(tenet::test::seed(75), "mb.hc").bytes(32);
  const HmacKey cached((BytesView(key)));
  for (const size_t n : kRecordSizes) {
    const Bytes data =
        Drbg::from_label(tenet::test::seed(76) + n, "mb.hc.d").bytes(n);
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

TEST(MultiBuf, HmacBatchMatchesParts) {
  Drbg rng = Drbg::from_label(tenet::test::seed(77), "mb.hb");
  const Bytes key = rng.bytes(32);
  const HmacKey cached((BytesView(key)));

  std::vector<Bytes> aads, bodies;
  std::vector<std::array<uint8_t, 16>> tags(kRecordSizes.size());
  std::vector<mb::MacJob> jobs;
  for (size_t i = 0; i < kRecordSizes.size(); ++i) {
    aads.push_back(rng.bytes(i % 3 == 0 ? 0 : 24));
    bodies.push_back(rng.bytes(kRecordSizes[i]));
  }
  for (size_t i = 0; i < kRecordSizes.size(); ++i) {
    jobs.push_back(
        mb::MacJob{aads[i], bodies[i], tags[i].data(), tags[i].size()});
  }
  mb::hmac_batch(cached, jobs);
  for (size_t i = 0; i < kRecordSizes.size(); ++i) {
    const Digest full = hmac_sha256_parts(key, {aads[i], bodies[i]});
    EXPECT_EQ(0, std::memcmp(tags[i].data(), full.data(), tags[i].size()))
        << "job " << i;
  }
}

TEST(MultiBuf, ShaKernelBackendsAgree) {
  if (!sha256_kernel::accelerated()) {
    GTEST_SKIP() << "SHA-NI not available; portable kernel already covered";
  }
  Drbg rng = Drbg::from_label(tenet::test::seed(78), "mb.sha");
  for (const size_t n : kRecordSizes) {
    const Bytes data = rng.bytes(n);
    const Digest fast = Sha256::hash(data);
    const bool prev = sha256_kernel::force_portable(true);
    const Digest portable = Sha256::hash(data);
    sha256_kernel::force_portable(prev);
    EXPECT_EQ(fast, portable) << "size " << n;
  }
}

TEST(MultiBuf, AeadSealBatchByteIdenticalToSequential) {
  const Aead aead(aead_key());
  Drbg rng = Drbg::from_label(tenet::test::seed(79), "mb.aead");

  std::vector<Bytes> plains;
  for (const size_t n : kRecordSizes) plains.push_back(rng.bytes(n));

  // Sequential scalar reference.
  std::vector<Bytes> expected;
  {
    BackendScope scope(mb::Backend::kScalar);
    for (size_t i = 0; i < plains.size(); ++i) {
      expected.push_back(aead.seal(0xAB, i, plains[i]));
    }
  }

  // One batched dispatch into preallocated buffers.
  std::vector<Bytes> actual;
  for (const Bytes& p : plains) actual.emplace_back(Aead::sealed_size(p.size()));
  std::vector<Aead::SealJob> jobs;
  for (size_t i = 0; i < plains.size(); ++i) {
    jobs.push_back(Aead::SealJob{0xAB, i, plains[i], BytesView{},
                                 actual[i].data()});
  }
  {
    BackendScope scope(mb::Backend::kBatched);
    aead.seal_batch(jobs);
  }
  EXPECT_EQ(actual, expected);

  // Every batched record must open through the normal path.
  for (size_t i = 0; i < actual.size(); ++i) {
    const auto opened = aead.open(actual[i]);
    ASSERT_TRUE(opened.has_value()) << "record " << i;
    EXPECT_EQ(*opened, plains[i]);
  }
}

TEST(MultiBuf, AeadSealBatchChargesCanonicalCost) {
  const Aead aead(aead_key(3));
  Drbg rng = Drbg::from_label(tenet::test::seed(80), "mb.ac");
  const std::initializer_list<size_t> lens = {1, 64, 1500};
  std::vector<Bytes> plains;
  for (const size_t n : lens) plains.push_back(rng.bytes(n));
  uint64_t expect_sha = 0;
  for (const size_t n : lens) expect_sha += hmac_blocks(Aead::kHeaderSize + n);

  WorkCounters batched_cost, scalar_cost, open_cost;
  std::vector<Bytes> out;
  for (const Bytes& p : plains) out.emplace_back(Aead::sealed_size(p.size()));
  {
    std::vector<Aead::SealJob> jobs;
    for (size_t i = 0; i < plains.size(); ++i) {
      jobs.push_back(
          Aead::SealJob{1, i, plains[i], BytesView{}, out[i].data()});
    }
    work::Scope meter(&batched_cost);
    BackendScope scope(mb::Backend::kBatched);
    aead.seal_batch(jobs);
  }
  {
    work::Scope meter(&scalar_cost);
    BackendScope scope(mb::Backend::kScalar);
    for (size_t i = 0; i < plains.size(); ++i) (void)aead.seal(1, i, plains[i]);
  }
  {
    std::vector<Aead::OpenJob> jobs;
    for (Bytes& record : out) jobs.push_back(Aead::OpenJob{record, BytesView{}});
    std::vector<std::optional<size_t>> results(jobs.size());
    work::Scope meter(&open_cost);
    aead.open_batch(jobs, results);
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].has_value()) << "record " << i;
    }
  }
  for (const WorkCounters* cost : {&batched_cost, &scalar_cost, &open_cost}) {
    EXPECT_EQ(cost->aes_blocks, ctr_blocks(lens));
    EXPECT_EQ(cost->aes_key_schedules, 0u);
    EXPECT_EQ(cost->sha256_blocks, expect_sha);
  }
  EXPECT_EQ(batched_cost.bytes_moved, scalar_cost.bytes_moved);
}

TEST(MultiBuf, AeadOpenInPlaceMatchesOpen) {
  const Aead aead(aead_key(5));
  Drbg rng = Drbg::from_label(tenet::test::seed(81), "mb.oip");
  for (const size_t n : kRecordSizes) {
    const Bytes plain = rng.bytes(n);
    Bytes record = aead.seal(2, 7, plain);

    Bytes in_place = record;
    const auto len = aead.open_in_place(std::span<uint8_t>(in_place));
    ASSERT_TRUE(len.has_value()) << "size " << n;
    EXPECT_EQ(*len, plain.size());
    EXPECT_EQ(Bytes(in_place.begin() + Aead::kHeaderSize,
                    in_place.begin() + Aead::kHeaderSize +
                        static_cast<ptrdiff_t>(*len)),
              plain);

    // Tampered record: rejected, buffer untouched.
    Bytes tampered = record;
    tampered[tampered.size() / 2] ^= 1;
    const Bytes before = tampered;
    EXPECT_FALSE(aead.open_in_place(std::span<uint8_t>(tampered)).has_value());
    EXPECT_EQ(tampered, before);
  }
}

}  // namespace
}  // namespace tenet::crypto
