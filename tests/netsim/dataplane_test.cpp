// Data-plane record path (DESIGN.md §13): zero-copy seal_into, in-place
// opens, suspend/resume snapshots, and the SessionCache hot tier must all be
// byte-identical to the copying seal()/open() channel — the bench's 3×
// speedup claim is only meaningful if the fast path is the same protocol.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "crypto/aes.h"
#include "crypto/rng.h"
#include "netsim/robust_channel.h"
#include "netsim/session_cache.h"
#include "test_seed.h"

namespace tenet::netsim {
namespace {

using crypto::Bytes;
using crypto::BytesView;
using crypto::Drbg;

Bytes channel_key(uint8_t tag = 0) {
  Bytes key(SecureChannel::kKeySize, 0);
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xC3 ^ i ^ tag);
  }
  return key;
}

TEST(Dataplane, SealIntoMatchesSequentialSeal) {
  const Bytes key = channel_key();
  Drbg rng = Drbg::from_label(tenet::test::seed(90), "dp.seal_into");

  std::vector<Bytes> plains;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{17}, size_t{64},
                         size_t{1500}, size_t{4096}}) {
    plains.push_back(rng.bytes(n));
  }

  SecureChannel sequential(key, /*initiator=*/true);
  std::vector<Bytes> expected;
  for (const Bytes& p : plains) expected.push_back(sequential.seal(p));

  // Every record sealed straight into one frame arena, back to back.
  SecureChannel zero_copy(key, /*initiator=*/true);
  size_t arena_bytes = 0;
  for (const Bytes& p : plains) {
    arena_bytes += SecureChannel::sealed_size(p.size());
  }
  Bytes arena(arena_bytes);
  std::vector<std::span<uint8_t>> frames;
  size_t off = 0;
  for (const Bytes& p : plains) {
    const size_t n = SecureChannel::sealed_size(p.size());
    frames.emplace_back(arena.data() + off, n);
    zero_copy.seal_into(p, frames.back());
    off += n;
  }

  for (size_t i = 0; i < plains.size(); ++i) {
    EXPECT_EQ(Bytes(frames[i].begin(), frames[i].end()), expected[i])
        << "record " << i;
  }
  EXPECT_EQ(zero_copy.records_sent(), sequential.records_sent());

  // The receiver accepts the zero-copy records in order.
  SecureChannel receiver(key, /*initiator=*/false);
  for (size_t i = 0; i < frames.size(); ++i) {
    const auto opened =
        receiver.open(BytesView(frames[i].data(), frames[i].size()));
    ASSERT_TRUE(opened.has_value()) << "record " << i;
    EXPECT_EQ(*opened, plains[i]);
  }
}

TEST(Dataplane, SealIntoInterleavedWithSealStaysInSequence) {
  // A channel that alternates between copying and zero-copy seals must
  // produce exactly the stream a seal-only channel produces (runs of
  // seal_into, one seal, seal_into again).
  const Bytes key = channel_key(1);
  Drbg rng = Drbg::from_label(tenet::test::seed(91), "dp.mix");
  std::vector<Bytes> plains;
  for (int i = 0; i < 9; ++i) plains.push_back(rng.bytes(48 + i));

  SecureChannel reference(key, true);
  std::vector<Bytes> expected;
  for (const Bytes& p : plains) expected.push_back(reference.seal(p));

  SecureChannel mixed(key, true);
  std::vector<Bytes> actual(plains.size());
  for (size_t i = 0; i < plains.size(); ++i) {
    if (i == 4) {
      actual[i] = mixed.seal(plains[i]);
      continue;
    }
    actual[i].resize(SecureChannel::sealed_size(plains[i].size()));
    mixed.seal_into(plains[i], actual[i]);
  }

  EXPECT_EQ(actual, expected);
}

TEST(Dataplane, OpenInPlaceMatchesOpen) {
  const Bytes key = channel_key(3);
  Drbg rng = Drbg::from_label(tenet::test::seed(92), "dp.oip");
  SecureChannel alice(key, true);
  SecureChannel bob_copy(key, false);
  SecureChannel bob_in_place(key, false);

  for (const size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{1500}}) {
    const Bytes plain = rng.bytes(n);
    const Bytes record = alice.seal(plain);

    const auto copied = bob_copy.open(record);
    ASSERT_TRUE(copied.has_value());

    Bytes buf = record;
    const auto len = bob_in_place.open_in_place(std::span<uint8_t>(buf));
    ASSERT_TRUE(len.has_value());
    EXPECT_EQ(*len, copied->size());
    EXPECT_EQ(Bytes(buf.begin() + crypto::Aead::kHeaderSize,
                    buf.begin() + crypto::Aead::kHeaderSize +
                        static_cast<ptrdiff_t>(*len)),
              *copied);
    EXPECT_EQ(bob_in_place.next_recv_seq(), bob_copy.next_recv_seq());
  }

  // Replay: the same record fails identically on both paths.
  const Bytes record = alice.seal(rng.bytes(20));
  Bytes buf = record;
  ASSERT_TRUE(bob_in_place.open_in_place(std::span<uint8_t>(buf)).has_value());
  Bytes replay = record;
  EXPECT_FALSE(
      bob_in_place.open_in_place(std::span<uint8_t>(replay)).has_value());
  ASSERT_TRUE(bob_copy.open(record).has_value());
  EXPECT_FALSE(bob_copy.open(record).has_value());
}

TEST(Dataplane, OpenInPlaceMatchesOpenOnMixedSequence) {
  // A stream mixing fresh records, a replay, a tampered record, a record
  // from the wrong direction and short garbage must get exactly the
  // decisions open() makes — same results, same plaintext, rejected
  // buffers untouched, same final sequence state.
  const Bytes key = channel_key(5);
  Drbg rng = Drbg::from_label(tenet::test::seed(94), "dp.mixed_open");
  SecureChannel alice(key, true);
  SecureChannel bob_sender(key, false);

  std::vector<Bytes> plains;
  std::vector<Bytes> records;
  for (const size_t n : {size_t{0}, size_t{33}, size_t{256}, size_t{1500}}) {
    plains.push_back(rng.bytes(n));
    records.push_back(alice.seal(plains.back()));
  }
  Bytes tampered = records[2];
  tampered.back() ^= 0x01;  // breaks the MAC
  const Bytes own_direction = bob_sender.seal(rng.bytes(24));
  const Bytes garbage = rng.bytes(crypto::Aead::kOverhead - 1);
  // Shape: fresh, fresh, replay of 1, tampered 2, wrong direction, short
  // garbage, genuine 2, fresh.
  const std::vector<Bytes> stream = {records[0], records[1],    records[1],
                                     tampered,   own_direction, garbage,
                                     records[2], records[3]};

  SecureChannel bob_copy(key, false);
  SecureChannel bob_in_place(key, false);
  std::vector<Bytes> bufs = stream;
  size_t accepted = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const auto copied = bob_copy.open(stream[i]);
    const auto len = bob_in_place.open_in_place(std::span<uint8_t>(bufs[i]));
    ASSERT_EQ(len.has_value(), copied.has_value()) << "record " << i;
    if (!len.has_value()) {
      EXPECT_EQ(bufs[i], stream[i]) << "rejected record " << i << " modified";
      continue;
    }
    ++accepted;
    EXPECT_EQ(Bytes(bufs[i].begin() + crypto::Aead::kHeaderSize,
                    bufs[i].begin() + crypto::Aead::kHeaderSize +
                        static_cast<ptrdiff_t>(*len)),
              *copied)
        << "record " << i;
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(bob_in_place.next_recv_seq(), bob_copy.next_recv_seq());
  EXPECT_EQ(bob_in_place.records_received(), bob_copy.records_received());
  EXPECT_EQ(bob_in_place.records_received(), 4u);

  // Both receivers are in the same state: the next record still opens.
  const Bytes follow = alice.seal(rng.bytes(64));
  Bytes buf = follow;
  EXPECT_TRUE(bob_copy.open(follow).has_value());
  EXPECT_TRUE(bob_in_place.open_in_place(std::span<uint8_t>(buf)).has_value());
}

TEST(Dataplane, RobustChannelOpenInPlaceTracksFailures) {
  const Bytes key = channel_key(6);
  Drbg rng = Drbg::from_label(tenet::test::seed(95), "dp.robust");
  SecureChannel alice(key, true);

  // No key installed: nullopt, no failure recorded, buffer untouched, and
  // seal_into refuses like seal().
  RobustChannel idle;
  const Bytes cold = alice.seal(rng.bytes(16));
  Bytes cold_buf = cold;
  EXPECT_FALSE(idle.open_in_place(std::span<uint8_t>(cold_buf)).has_value());
  EXPECT_FALSE(idle.open(cold).has_value());
  EXPECT_EQ(idle.consecutive_failures(), 0u);
  EXPECT_EQ(cold_buf, cold);
  Bytes out(RobustChannel::sealed_size(4));
  EXPECT_THROW(idle.seal_into(Bytes(4, 0), out), std::logic_error);
  EXPECT_THROW((void)idle.seal(Bytes(4, 0)), std::logic_error);

  // Installed: the in-place path keeps the same failure count as open().
  SecureChannel sender(key, true);
  RobustChannel copying;
  RobustChannel in_place;
  copying.install(key, false);
  in_place.install(key, false);

  std::vector<Bytes> recs;
  for (int i = 0; i < 4; ++i) recs.push_back(sender.seal(rng.bytes(40)));
  Bytes bad1 = recs[1];
  bad1[bad1.size() / 2] ^= 0x80;
  Bytes bad2 = recs[2];
  bad2[bad2.size() / 2] ^= 0x80;
  // good, tampered, tampered, good: failures accumulate past the last
  // success and the next success clears them.
  const std::vector<Bytes> stream = {recs[0], bad1, bad2, recs[3]};
  const std::vector<uint32_t> failures_after = {0, 1, 2, 0};
  for (size_t i = 0; i < stream.size(); ++i) {
    Bytes buf = stream[i];
    const auto len = in_place.open_in_place(std::span<uint8_t>(buf));
    const auto copied = copying.open(stream[i]);
    EXPECT_EQ(len.has_value(), copied.has_value()) << "record " << i;
    EXPECT_EQ(len.has_value(), i == 0 || i == 3) << "record " << i;
    EXPECT_EQ(in_place.consecutive_failures(), failures_after[i])
        << "record " << i;
    EXPECT_EQ(copying.consecutive_failures(), failures_after[i])
        << "record " << i;
  }
}

TEST(Dataplane, ResumeSealsByteIdentically) {
  const Bytes key = channel_key(4);
  Drbg rng = Drbg::from_label(tenet::test::seed(93), "dp.resume");

  SecureChannel live(key, true);
  SecureChannel snapshot_source(key, true);
  for (int i = 0; i < 5; ++i) {
    const Bytes p = rng.bytes(40);
    const Bytes a = live.seal(p);
    const Bytes b = snapshot_source.seal(p);
    ASSERT_EQ(a, b);
  }

  // Suspend/resume mid-stream: the resumed channel continues the exact
  // record stream of the channel that never left memory.
  SecureChannel resumed(key, true, snapshot_source.resume_state());
  for (int i = 0; i < 5; ++i) {
    const Bytes p = rng.bytes(40);
    EXPECT_EQ(resumed.seal(p), live.seal(p));
  }
  EXPECT_EQ(resumed.records_sent(), live.records_sent());
}

TEST(Dataplane, SessionCacheResumeIsByteIdentical) {
  SessionCache cache(/*hot_capacity=*/2);
  const Bytes key = channel_key(5);
  cache.install(7, key, /*initiator=*/true);

  SecureChannel reference(key, true);
  Drbg rng = Drbg::from_label(tenet::test::seed(94), "dp.cache");

  for (int round = 0; round < 4; ++round) {
    SecureChannel* chan = cache.find(7);
    ASSERT_NE(chan, nullptr);
    const Bytes p = rng.bytes(64);
    EXPECT_EQ(chan->seal(p), reference.seal(p)) << "round " << round;
    // Force the write-back + re-materialize path every round.
    cache.evict(7);
  }
  EXPECT_GE(cache.stats().resumes, 3u);
  EXPECT_GE(cache.stats().evictions, 3u);
}

TEST(Dataplane, SessionCacheUnknownPeerAndRekey) {
  SessionCache cache(4);
  EXPECT_EQ(cache.find(99), nullptr);
  EXPECT_FALSE(cache.contains(99));

  const Bytes key1 = channel_key(6);
  const Bytes key2 = channel_key(7);
  cache.install(1, key1, true);
  SecureChannel* chan = cache.find(1);
  ASSERT_NE(chan, nullptr);
  (void)chan->seal(Bytes(16, 0xAA));
  EXPECT_EQ(chan->records_sent(), 1u);

  // Re-install (rekey): sequence numbers reset, new key takes effect.
  cache.install(1, key2, true);
  chan = cache.find(1);
  ASSERT_NE(chan, nullptr);
  EXPECT_EQ(chan->records_sent(), 0u);
  SecureChannel fresh(key2, true);
  const Bytes p(16, 0xBB);
  EXPECT_EQ(chan->seal(p), fresh.seal(p));
  EXPECT_EQ(cache.size(), 1u);
}

// Property: under a seeded random workload over many more peers than hot
// slots, every record sealed through the cache is byte-identical to a
// ground-truth map of always-live channels, regardless of eviction order.
// Re-rolls with TENET_TEST_SEED.
TEST(Property, SessionCacheMatchesAlwaysLiveChannels) {
  const uint64_t seed = tenet::test::seed(95);
  Drbg rng = Drbg::from_label(seed, "dp.prop");

  constexpr size_t kPeers = 64;
  constexpr size_t kHot = 8;
  constexpr int kOps = 2000;

  SessionCache cache(kHot);
  std::map<uint64_t, SecureChannel> truth;

  for (int op = 0; op < kOps; ++op) {
    const uint64_t peer = rng.uniform(kPeers);
    const bool installed = cache.contains(peer);
    // 2% rekey rate keeps the install path warm throughout.
    if (!installed || rng.uniform(50) == 0) {
      const Bytes key = rng.bytes(SecureChannel::kKeySize);
      const bool initiator = rng.uniform(2) == 0;
      cache.install(peer, key, initiator);
      truth.erase(peer);
      truth.emplace(peer, SecureChannel(key, initiator));
    }
    SecureChannel* chan = cache.find(peer);
    ASSERT_NE(chan, nullptr);
    const Bytes payload = rng.bytes(1 + rng.uniform(256));
    const Bytes got = chan->seal(payload);
    const Bytes want = truth.at(peer).seal(payload);
    ASSERT_EQ(got, want) << "op " << op << " peer " << peer << " seed "
                         << seed;
  }

  EXPECT_EQ(cache.size(), truth.size());
  EXPECT_LE(cache.hot_size(), kHot);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().hot_hits + cache.stats().resumes,
            static_cast<uint64_t>(kOps));
}

// The AES-NI backend and the portable backend drive the same channel
// state: a receiver on the portable backend accepts a zero-copy record
// sealed on the AES-NI backend.
TEST(Dataplane, BackendsInterchangeableOnTheWire) {
  const Bytes key = channel_key(8);
  Drbg rng = Drbg::from_label(tenet::test::seed(96), "dp.wire");

  const crypto::mb::Backend prev =
      crypto::mb::set_backend(crypto::mb::Backend::kBatched);
  SecureChannel sender(key, true);
  Bytes p1 = rng.bytes(300);
  Bytes r1(SecureChannel::sealed_size(p1.size()));
  sender.seal_into(p1, r1);

  crypto::mb::set_backend(crypto::mb::Backend::kScalar);
  SecureChannel receiver(key, false);
  Bytes buf = r1;
  const auto len = receiver.open_in_place(std::span<uint8_t>(buf));
  crypto::mb::set_backend(prev);

  ASSERT_TRUE(len.has_value());
  EXPECT_EQ(Bytes(buf.begin() + crypto::Aead::kHeaderSize,
                  buf.begin() + crypto::Aead::kHeaderSize +
                      static_cast<ptrdiff_t>(*len)),
            p1);
}

}  // namespace
}  // namespace tenet::netsim
