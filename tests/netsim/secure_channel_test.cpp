#include "netsim/secure_channel.h"

#include <gtest/gtest.h>

#include "crypto/rng.h"

namespace tenet::netsim {
namespace {

crypto::Bytes key() { return crypto::Bytes(SecureChannel::kKeySize, 0x11); }

struct Pair {
  SecureChannel alice{key(), /*initiator=*/true};
  SecureChannel bob{key(), /*initiator=*/false};
};

TEST(SecureChannel, BidirectionalRoundTrip) {
  Pair p;
  const auto to_bob = p.alice.seal(crypto::to_bytes("to bob"));
  const auto got_b = p.bob.open(to_bob);
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(crypto::to_string(*got_b), "to bob");

  const auto to_alice = p.bob.seal(crypto::to_bytes("to alice"));
  const auto got_a = p.alice.open(to_alice);
  ASSERT_TRUE(got_a.has_value());
  EXPECT_EQ(crypto::to_string(*got_a), "to alice");
}

TEST(SecureChannel, ManySequentialRecords) {
  Pair p;
  for (int i = 0; i < 200; ++i) {
    crypto::Bytes msg;
    crypto::append_u32(msg, static_cast<uint32_t>(i));
    const auto opened = p.bob.open(p.alice.seal(msg));
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(crypto::read_u32(*opened, 0), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(p.alice.records_sent(), 200u);
  EXPECT_EQ(p.bob.records_received(), 200u);
}

TEST(SecureChannel, RejectsOwnDirection) {
  Pair p;
  const auto record = p.alice.seal(crypto::to_bytes("reflect"));
  // Reflected back at alice: wrong direction nonce.
  EXPECT_FALSE(p.alice.open(record).has_value());
}

TEST(SecureChannel, RejectsReplay) {
  Pair p;
  const auto record = p.alice.seal(crypto::to_bytes("once"));
  ASSERT_TRUE(p.bob.open(record).has_value());
  EXPECT_FALSE(p.bob.open(record).has_value());
}

TEST(SecureChannel, RejectsOldRecordAfterNewer) {
  Pair p;
  const auto r0 = p.alice.seal(crypto::to_bytes("zero"));
  const auto r1 = p.alice.seal(crypto::to_bytes("one"));
  ASSERT_TRUE(p.bob.open(r1).has_value());
  EXPECT_FALSE(p.bob.open(r0).has_value());
}

TEST(SecureChannel, ToleratesForwardLoss) {
  // Losing records is fine; later ones still authenticate.
  Pair p;
  (void)p.alice.seal(crypto::to_bytes("lost0"));
  (void)p.alice.seal(crypto::to_bytes("lost1"));
  const auto r2 = p.alice.seal(crypto::to_bytes("arrives"));
  const auto opened = p.bob.open(r2);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(crypto::to_string(*opened), "arrives");
}

TEST(SecureChannel, RejectsTampering) {
  Pair p;
  auto record = p.alice.seal(crypto::to_bytes("integrity"));
  record[record.size() / 2] ^= 1;
  EXPECT_FALSE(p.bob.open(record).has_value());
}

TEST(SecureChannel, RejectsWrongKey) {
  Pair p;
  SecureChannel mallory(crypto::Bytes(SecureChannel::kKeySize, 0x99), false);
  const auto record = p.alice.seal(crypto::to_bytes("secret"));
  EXPECT_FALSE(mallory.open(record).has_value());
}

TEST(SecureChannel, RejectsShortGarbage) {
  Pair p;
  EXPECT_FALSE(p.bob.open(crypto::Bytes{}).has_value());
  EXPECT_FALSE(p.bob.open(crypto::Bytes(10, 0xaa)).has_value());
}

TEST(SecureChannel, CiphertextHidesPlaintext) {
  Pair p;
  const crypto::Bytes pt = crypto::to_bytes("BGP policy: prefer customer routes");
  const auto record = p.alice.seal(pt);
  const auto it = std::search(record.begin(), record.end(), pt.begin(), pt.end());
  EXPECT_EQ(it, record.end());
}

TEST(SecureChannel, SealThrowsAtNonceExhaustion) {
  Pair p;
  p.alice.set_seq_limit(/*hard_limit=*/4, /*rekey_margin=*/1);
  for (int i = 0; i < 4; ++i) (void)p.alice.seal(crypto::to_bytes("r"));
  EXPECT_THROW((void)p.alice.seal(crypto::to_bytes("one too many")),
               NonceExhaustedError);
  // The guard is about the SEND direction only; receiving still works.
  const auto from_bob = p.bob.seal(crypto::to_bytes("inbound fine"));
  EXPECT_TRUE(p.alice.open(from_bob).has_value());
}

TEST(SecureChannel, SealIntoAtTheLimitLeavesOutAndSeqUntouched) {
  Pair p;
  p.alice.set_seq_limit(/*hard_limit=*/4, /*rekey_margin=*/1);
  p.alice.advance_send_seq(3);
  const crypto::Bytes pt = crypto::to_bytes("last legal record");
  crypto::Bytes last(SecureChannel::sealed_size(pt.size()));
  p.alice.seal_into(pt, last);
  EXPECT_EQ(p.alice.records_sent(), 4u);

  // At the limit: the throw comes before any byte of `out` is written and
  // before the sequence moves, on the zero-copy and the copying path alike.
  crypto::Bytes out(SecureChannel::sealed_size(pt.size()), 0xEE);
  const crypto::Bytes before = out;
  EXPECT_THROW(p.alice.seal_into(pt, out), NonceExhaustedError);
  EXPECT_EQ(out, before);
  EXPECT_EQ(p.alice.records_sent(), 4u);
  EXPECT_THROW((void)p.alice.seal(pt), NonceExhaustedError);
  EXPECT_EQ(p.alice.records_sent(), 4u);

  // The last legal record is sequence 3 and still opens.
  EXPECT_EQ(crypto::Aead::record_seq(last), 3u);
  const auto opened = p.bob.open(last);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(SecureChannel, SealIntoWrongSizeOutSpendsNoSequenceNumber) {
  Pair p;
  const crypto::Bytes pt = crypto::to_bytes("four");
  crypto::Bytes small(SecureChannel::sealed_size(pt.size()) - 1, 0xEE);
  crypto::Bytes large(SecureChannel::sealed_size(pt.size()) + 1, 0xEE);
  EXPECT_THROW(p.alice.seal_into(pt, small), std::invalid_argument);
  EXPECT_THROW(p.alice.seal_into(pt, large), std::invalid_argument);
  EXPECT_EQ(p.alice.records_sent(), 0u);
  EXPECT_EQ(small, crypto::Bytes(small.size(), 0xEE));

  // The next record still carries sequence 0, so the peer's replay
  // window sees no gap and opens it.
  crypto::Bytes out(SecureChannel::sealed_size(pt.size()));
  p.alice.seal_into(pt, out);
  EXPECT_EQ(crypto::Aead::record_seq(out), 0u);
  const auto opened = p.bob.open(out);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(SecureChannel, NeedsRekeyWarnsBeforeTheWall) {
  Pair p;
  p.alice.set_seq_limit(/*hard_limit=*/100, /*rekey_margin=*/10);
  EXPECT_FALSE(p.alice.needs_rekey());
  p.alice.advance_send_seq(89);
  EXPECT_FALSE(p.alice.needs_rekey());  // 89 + 10 < 100
  p.alice.advance_send_seq(90);
  EXPECT_TRUE(p.alice.needs_rekey());  // margin reached, seal still legal
  const auto record = p.alice.seal(crypto::to_bytes("still sealing"));
  EXPECT_TRUE(p.bob.open(record).has_value());
}

TEST(SecureChannel, ExhaustionAtTheRealDefaultLimit) {
  // Jump to just below 2^48 instead of sealing 2^48 records.
  Pair p;
  p.alice.advance_send_seq(SecureChannel::kDefaultSeqLimit - 1);
  EXPECT_TRUE(p.alice.needs_rekey());
  (void)p.alice.seal(crypto::to_bytes("last legal record"));
  EXPECT_THROW((void)p.alice.seal(crypto::to_bytes("reuse")),
               NonceExhaustedError);
}

TEST(SecureChannel, AdvanceSendSeqCannotRewind) {
  Pair p;
  p.alice.advance_send_seq(1000);
  EXPECT_THROW(p.alice.advance_send_seq(999), std::invalid_argument);
  EXPECT_NO_THROW(p.alice.advance_send_seq(1000));  // same value is a no-op
}

}  // namespace
}  // namespace tenet::netsim
