#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include "crypto/rng.h"
#include "crypto/work.h"
#include "test_seed.h"

namespace tenet::crypto {
namespace {

// FIPS 180-4 / NIST CAVP known-answer vectors.
struct ShaVector {
  const char* name;
  const char* message;
  const char* digest_hex;
};

// Parameters print as their name. gtest would otherwise print the raw bytes
// of the struct, pointers included, and the ctest names derived from that
// output would change from run to run with the address-space layout.
void PrintTo(const ShaVector& v, std::ostream* os) { *os << v.name; }

class Sha256Kat : public ::testing::TestWithParam<ShaVector> {};

TEST_P(Sha256Kat, MatchesKnownAnswer) {
  const auto& v = GetParam();
  const Digest d = Sha256::hash(to_bytes(v.message));
  EXPECT_EQ(digest_hex(d), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    NistVectors, Sha256Kat,
    ::testing::Values(
        ShaVector{"empty", "",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        ShaVector{"abc", "abc",
                  "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        ShaVector{"448_bits",
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        ShaVector{"896_bits",
                  "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                  "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                  "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
        ShaVector{"quick_brown_fox",
                  "The quick brown fox jumps over the lazy dog",
                  "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"}));

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShotAtEverySplit) {
  const Bytes msg = to_bytes("streaming interface must match one-shot hashing");
  const Digest whole = Sha256::hash(msg);
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(BytesView(msg.data(), split));
    h.update(BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), whole) << "split=" << split;
  }
}

TEST(Sha256, HashPartsEqualsConcatenation) {
  const Bytes a = to_bytes("alpha");
  const Bytes b = to_bytes("beta");
  Bytes ab = a;
  append(ab, b);
  EXPECT_EQ(Sha256::hash_parts({BytesView(a), BytesView(b)}), Sha256::hash(ab));
}

TEST(Sha256, ResetRestoresInitialState) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(digest_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ChargesOneBlockPerCompression) {
  WorkCounters wc;
  work::Scope scope(&wc);
  (void)Sha256::hash(Bytes(64 * 10, 0x42));  // 10 data blocks + 1 padding block
  EXPECT_EQ(wc.sha256_blocks, 11u);
}

TEST(Sha256, DistinctMessagesDistinctDigests) {
  // Smoke-level collision sanity over a small corpus.
  std::vector<Digest> seen;
  for (int i = 0; i < 256; ++i) {
    Bytes msg{static_cast<uint8_t>(i)};
    const Digest d = Sha256::hash(msg);
    for (const auto& prev : seen) EXPECT_NE(d, prev);
    seen.push_back(d);
  }
}

TEST(Sha256, KernelBackendsAgree) {
  if (!sha256_kernel::accelerated()) {
    GTEST_SKIP() << "SHA-NI not available; portable kernel already covered";
  }
  Drbg rng = Drbg::from_label(tenet::test::seed(78), "sha256.kernels");
  for (const size_t n :
       {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17}, size_t{55},
        size_t{56}, size_t{63}, size_t{64}, size_t{65}, size_t{256},
        size_t{257}, size_t{1500}, size_t{4096}, size_t{65536}}) {
    const Bytes data = rng.bytes(n);
    const Digest fast = Sha256::hash(data);
    const bool prev = sha256_kernel::force_portable(true);
    const Digest portable = Sha256::hash(data);
    sha256_kernel::force_portable(prev);
    EXPECT_EQ(fast, portable) << "size " << n;
  }
}

}  // namespace
}  // namespace tenet::crypto
