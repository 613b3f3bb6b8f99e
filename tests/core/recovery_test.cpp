// Enclave recovery: attestation retry with backoff under loss, channel
// NACK + re-handshake after a peer restart, MAC-failure rekeying, sealed
// checkpoint/restore through a real injected EPC fault — and the headline
// determinism guarantee: a scripted faulty run (loss + a forced crash)
// produces byte-identical telemetry on every replay.
#include <gtest/gtest.h>

#include "core/node.h"
#include "core/open_project.h"
#include "core/ports.h"
#include "netsim/robust_channel.h"
#include "telemetry/telemetry.h"

namespace tenet::core {
namespace {

/// Stateful app: stores received strings AND its own notes; checkpoint
/// carries the notes so they survive an enclave restart.
class MemoApp final : public SecureApp {
 public:
  using SecureApp::SecureApp;

  void on_secure_message(Ctx&, netsim::NodeId,
                         crypto::BytesView payload) override {
    inbox.emplace_back(crypto::to_string(payload));
  }
  crypto::Bytes on_control(Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override {
    switch (subfn) {
      case 1: {  // send secure: u32 peer | LV text
        crypto::Reader r(arg);
        const netsim::NodeId peer = r.u32();
        ctx.send_secure(peer, r.lv());
        return {};
      }
      case 2: {  // inbox count
        crypto::Bytes out;
        crypto::append_u64(out, inbox.size());
        return out;
      }
      case 3:  // add note
        notes.emplace_back(arg.begin(), arg.end());
        return {};
      case 4: {  // notes, concatenated as LVs
        crypto::Bytes out;
        for (const crypto::Bytes& n : notes) crypto::append_lv(out, n);
        return out;
      }
      default:
        return {};
    }
  }
  crypto::Bytes on_checkpoint(Ctx&) override {
    crypto::Bytes state;
    crypto::append_u32(state, static_cast<uint32_t>(notes.size()));
    for (const crypto::Bytes& n : notes) crypto::append_lv(state, n);
    return state;
  }
  void on_restore(Ctx&, crypto::BytesView state) override {
    try {
      crypto::Reader r(state);
      const uint32_t n = r.u32();
      for (uint32_t i = 0; i < n; ++i) notes.push_back(r.lv());
    } catch (const std::exception&) {
    }
  }

  std::vector<std::string> inbox;
  std::vector<crypto::Bytes> notes;
};

struct RecoveryWorld {
  explicit RecoveryWorld(netsim::RetryPolicy retry = {}, uint64_t seed = 1)
      : sim(seed), project("memo", "tenet memo app v1\n", nullptr) {
    const sgx::AttestationConfig cfg = project.policy();
    const sgx::Authority* auth = &authority;
    image = project.build();
    image.factory = [auth, cfg, retry] {
      auto app = std::make_unique<MemoApp>(*auth, cfg);
      app->enable_recovery(retry);
      return app;
    };
    a = std::make_unique<EnclaveNode>(sim, authority, "rw-a",
                                      project.foundation(), image);
    b = std::make_unique<EnclaveNode>(sim, authority, "rw-b",
                                      project.foundation(), image);
    a->start();
    b->start();
  }

  void send(EnclaveNode& from, netsim::NodeId to, std::string_view text) {
    crypto::Bytes arg;
    crypto::append_u32(arg, to);
    crypto::append_lv(arg, crypto::to_bytes(text));
    (void)from.control(1, arg);
  }
  uint64_t received(EnclaveNode& n) { return crypto::read_u64(n.control(2), 0); }

  netsim::Simulator sim;
  sgx::Authority authority;
  OpenProject project;
  sgx::EnclaveImage image;
  std::unique_ptr<EnclaveNode> a, b;
};

// ---------------------------------------------------------------------------
// Backoff schedule + RobustChannel unit behaviour
// ---------------------------------------------------------------------------

TEST(Backoff, GrowsExponentiallyAndCaps) {
  netsim::RetryPolicy p;
  p.base_delay = 0.1;
  p.multiplier = 2.0;
  p.max_delay = 0.5;
  p.jitter = 0;  // deterministic, no draw
  crypto::Drbg rng = crypto::Drbg::from_label(1, "backoff.test");
  EXPECT_DOUBLE_EQ(netsim::backoff_delay(p, 0, rng), 0.1);
  EXPECT_DOUBLE_EQ(netsim::backoff_delay(p, 1, rng), 0.2);
  EXPECT_DOUBLE_EQ(netsim::backoff_delay(p, 2, rng), 0.4);
  EXPECT_DOUBLE_EQ(netsim::backoff_delay(p, 3, rng), 0.5);   // capped
  EXPECT_DOUBLE_EQ(netsim::backoff_delay(p, 30, rng), 0.5);  // stays capped
}

TEST(Backoff, JitterDrawsExactlyOneValueAndBoundsDelay) {
  netsim::RetryPolicy p;
  p.base_delay = 0.1;
  p.jitter = 0.5;
  crypto::Drbg rng1 = crypto::Drbg::from_label(2, "backoff.jitter");
  crypto::Drbg rng2 = crypto::Drbg::from_label(2, "backoff.jitter");
  const double d = netsim::backoff_delay(p, 0, rng1);
  EXPECT_GE(d, 0.1);
  EXPECT_LT(d, 0.1 * 1.5);
  // Exactly one draw: both generators are now in the same state.
  (void)rng2.uniform_real();
  EXPECT_EQ(rng1.bytes(16), rng2.bytes(16));
}

TEST(RobustChannel, EpochCountsInstalls) {
  netsim::RobustChannel ch;
  EXPECT_FALSE(ch.ready());
  EXPECT_EQ(ch.epoch(), 0u);
  const crypto::Bytes key(netsim::SecureChannel::kKeySize, 0x42);
  ch.install(key, /*initiator=*/true);
  EXPECT_TRUE(ch.ready());
  EXPECT_EQ(ch.epoch(), 1u);
  ch.install(key, true);  // rekey
  EXPECT_EQ(ch.epoch(), 2u);
  ch.reset();
  EXPECT_FALSE(ch.ready());
  EXPECT_EQ(ch.epoch(), 2u);  // epoch survives the reset
}

TEST(RobustChannel, TracksConsecutiveOpenFailures) {
  const crypto::Bytes key(netsim::SecureChannel::kKeySize, 0x42);
  netsim::RobustChannel tx, rx;
  tx.install(key, true);
  rx.install(key, false);
  EXPECT_FALSE(rx.open(crypto::Bytes(48, 0xee)).has_value());
  EXPECT_FALSE(rx.open(crypto::Bytes(48, 0xef)).has_value());
  EXPECT_EQ(rx.consecutive_failures(), 2u);
  const crypto::Bytes record = tx.seal(crypto::to_bytes("ok"));
  EXPECT_TRUE(rx.open(record).has_value());
  EXPECT_EQ(rx.consecutive_failures(), 0u);  // success clears the streak
}

TEST(RobustChannel, SealWithoutKeyThrows) {
  netsim::RobustChannel ch;
  EXPECT_THROW((void)ch.seal(crypto::to_bytes("x")), std::logic_error);
  EXPECT_FALSE(ch.open(crypto::Bytes(48, 1)).has_value());
}

// ---------------------------------------------------------------------------
// Attestation retry under faults
// ---------------------------------------------------------------------------

TEST(Recovery, RetryRecoversFromLostChallenge) {
  netsim::RetryPolicy retry;
  RecoveryWorld w(retry);
  // The first challenge is eaten by a cut link; the backoff retransmission
  // goes through after the heal. No host-driven reconnect needed.
  w.sim.fault_plan().set_link(w.a->id(), w.b->id(), {.loss = 1});
  w.a->connect_to(w.b->id());
  w.sim.fault_plan().set_link(w.a->id(), w.b->id(), {});
  w.sim.run();
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);
  EXPECT_GE(w.a->query(kQueryAttestRetries), 1u);
  w.send(*w.a, w.b->id(), "after retry");
  w.sim.run();
  EXPECT_EQ(w.received(*w.b), 1u);
}

TEST(Recovery, RetryBudgetExhaustionReportsPeerFailure) {
  netsim::RetryPolicy retry;
  retry.max_attempts = 5;
  RecoveryWorld w(retry);
  w.sim.fault_plan().set_link(w.a->id(), w.b->id(), {.loss = 1});  // forever
  w.a->connect_to(w.b->id());
  w.sim.run();  // drains all retry timers
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 0u);
  EXPECT_EQ(w.a->query(kQueryAttestRetries), 4u);  // attempts 1..4 resent
  EXPECT_EQ(w.a->query(kQueryPeerFailures), 1u);

  // The peer state was dropped: healing + reconnecting starts fresh.
  w.sim.fault_plan().set_link(w.a->id(), w.b->id(), {});
  w.a->connect_to(w.b->id());
  w.sim.run();
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);
}

TEST(Recovery, AttestationSurvivesHeavyLoss) {
  netsim::RetryPolicy retry;
  retry.max_attempts = 10;
  RecoveryWorld w(retry, /*seed=*/7);
  netsim::LinkFaults f;
  f.loss = 0.5;
  w.sim.fault_plan().set_default(f);
  w.a->connect_to(w.b->id());
  w.sim.run();
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);
}

// ---------------------------------------------------------------------------
// Peer restart: NACK -> re-handshake
// ---------------------------------------------------------------------------

TEST(Recovery, PeerRestartNackTriggersRehandshake) {
  RecoveryWorld w;
  w.a->connect_to(w.b->id());
  w.sim.run();
  ASSERT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);

  w.b->relaunch();  // fresh enclave: all channel state gone
  ASSERT_EQ(w.b->query(kQueryAttestedPeerCount), 0u);

  // A still believes the channel is up. Its record is rejected by the new
  // instance, which NACKs; A re-attests automatically and traffic resumes.
  w.send(*w.a, w.b->id(), "lost to the restart");
  w.sim.run();
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);
  EXPECT_EQ(w.a->query(kQueryRehandshakes), 1u);
  EXPECT_GE(w.b->query(kQueryRejectedRecords), 1u);

  w.send(*w.a, w.b->id(), "after recovery");
  w.sim.run();
  EXPECT_EQ(w.received(*w.b), 1u);
}

TEST(Recovery, ForgedNackCannotTearDownHealthyChannel) {
  // kPortChannelReset is unauthenticated (threat model: DoS only). A
  // forged NACK for a healthy channel triggers at most one extra
  // handshake; it must not wedge or kill the relationship.
  RecoveryWorld w;
  w.a->connect_to(w.b->id());
  w.sim.run();
  w.sim.post(netsim::Message{w.b->id(), w.a->id(), kPortChannelReset, {}});
  w.sim.run();
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);
  w.send(*w.a, w.b->id(), "still fine");
  w.sim.run();
  EXPECT_EQ(w.received(*w.b), 1u);
}

TEST(Recovery, MacFailureBurstTriggersRehandshake) {
  netsim::RetryPolicy retry;
  retry.mac_failure_threshold = 3;
  RecoveryWorld w(retry);
  w.a->connect_to(w.b->id());
  w.sim.run();
  ASSERT_EQ(w.b->query(kQueryAttestedPeerCount), 1u);

  // A MITM injects garbage records "from" A until B presumes the channel
  // dead and re-attests.
  for (int i = 0; i < 3; ++i) {
    w.sim.post(netsim::Message{w.a->id(), w.b->id(), kPortSecure,
                               crypto::Bytes(64, static_cast<uint8_t>(i))});
  }
  w.sim.run();
  EXPECT_GE(w.b->query(kQueryRejectedRecords), 3u);
  EXPECT_EQ(w.b->query(kQueryRehandshakes), 1u);
  // Fresh keys on both sides; service intact in both directions.
  w.send(*w.a, w.b->id(), "ping");
  w.send(*w.b, w.a->id(), "pong");
  w.sim.run();
  EXPECT_EQ(w.received(*w.b), 1u);
  EXPECT_EQ(w.received(*w.a), 1u);
}

// ---------------------------------------------------------------------------
// Sealed checkpoint / restore through a real EPC fault
// ---------------------------------------------------------------------------

TEST(Recovery, CheckpointRestoreSurvivesInjectedFault) {
  RecoveryWorld w;
  (void)w.b->control(3, crypto::to_bytes("relay list v42"));
  (void)w.b->control(3, crypto::to_bytes("authority keys"));

  const crypto::Bytes sealed = w.b->checkpoint();
  ASSERT_FALSE(sealed.empty());
  // Sealed means sealed: the host-held blob leaks no plaintext.
  const crypto::Bytes secret = crypto::to_bytes("relay list v42");
  EXPECT_EQ(std::search(sealed.begin(), sealed.end(), secret.begin(),
                        secret.end()),
            sealed.end());

  w.b->inject_fault();
  EXPECT_TRUE(w.b->dead());

  ASSERT_TRUE(w.b->recover());
  EXPECT_FALSE(w.b->dead());
  const crypto::Bytes notes = w.b->control(4);
  crypto::Reader r(notes);
  EXPECT_EQ(crypto::to_string(r.lv()), "relay list v42");
  EXPECT_EQ(crypto::to_string(r.lv()), "authority keys");
}

TEST(Recovery, RestoreRejectsGarbageBlob) {
  RecoveryWorld w;
  (void)w.b->control(3, crypto::to_bytes("note"));
  (void)w.b->checkpoint();
  w.b->inject_fault();
  w.b->relaunch();
  EXPECT_FALSE(w.b->restore(crypto::Bytes(77, 0xab)));
  EXPECT_TRUE(w.b->control(4).empty());  // nothing restored from garbage
}

TEST(Recovery, NodeWithoutCheckpointHasNothingToRestore) {
  RecoveryWorld w;
  w.a->inject_fault();
  w.a->relaunch();
  EXPECT_TRUE(w.a->last_checkpoint().empty());
  EXPECT_FALSE(w.a->restore({}));
}

// ---------------------------------------------------------------------------
// Determinism: the acceptance criterion
// ---------------------------------------------------------------------------

std::string run_scripted_chaos() {
  telemetry::registry().reset_values();
  telemetry::set_enabled(true);
  std::string json;
  {
    netsim::RetryPolicy retry;
    RecoveryWorld w(retry, /*seed=*/2015);
    netsim::LinkFaults f;
    f.loss = 0.05;  // the scripted 5% loss
    w.sim.fault_plan().set_default(f);

    // A send can land while a re-handshake is still pending (the NACK or a
    // handshake message was itself lost); the app-level error is part of
    // the scripted run and equally deterministic.
    const auto try_send = [&w](int i) {
      try {
        w.send(*w.a, w.b->id(), "msg-" + std::to_string(i));
      } catch (const std::logic_error&) {
      }
      w.sim.run();
    };
    w.a->connect_to(w.b->id());
    w.sim.run();
    for (int i = 0; i < 20; ++i) try_send(i);
    // One forced crash + sealed-state recovery mid-run.
    w.b->checkpoint();
    w.b->inject_fault();
    if (!w.b->recover()) throw std::runtime_error("recover failed");
    for (int i = 20; i < 40; ++i) try_send(i);
    json = telemetry::registry().metrics_json();
  }
  telemetry::set_enabled(false);
  return json;
}

TEST(Recovery, ScriptedChaosRunIsByteIdentical) {
  const std::string run1 = run_scripted_chaos();
  const std::string run2 = run_scripted_chaos();
  EXPECT_EQ(run1, run2);
#if TENET_TELEMETRY_ENABLED
  // The run actually exercised the fault machinery (counters are real).
  // With telemetry compiled out the instruments don't exist; the replay
  // equality above is the whole claim.
  EXPECT_NE(run1.find("\"net.fault.loss\""), std::string::npos);
  EXPECT_NE(run1.find("\"sgx.enclave_restarts\""), std::string::npos);
  EXPECT_NE(run1.find("\"app.rehandshakes\""), std::string::npos);
#endif
}

}  // namespace
}  // namespace tenet::core
