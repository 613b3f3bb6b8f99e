// Failure injection: lossy links, partitions and crashes mid-protocol.
// The threat model allows DoS — these tests pin down that DoS-class
// failures degrade availability only, never integrity or confidentiality,
// and that recovery paths work.
#include <gtest/gtest.h>

#include "core/node.h"
#include "core/open_project.h"
#include "core/ports.h"

namespace tenet::core {
namespace {

class StoreApp final : public SecureApp {
 public:
  using SecureApp::SecureApp;
  void on_secure_message(Ctx&, netsim::NodeId,
                         crypto::BytesView payload) override {
    received.emplace_back(payload.begin(), payload.end());
  }
  crypto::Bytes on_control(Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override {
    if (subfn == 1) {
      crypto::Reader r(arg);
      const netsim::NodeId peer = r.u32();
      ctx.send_secure(peer, r.lv());
    }
    if (subfn == 2) {
      crypto::Bytes out;
      crypto::append_u64(out, received.size());
      return out;
    }
    return {};
  }
  std::vector<crypto::Bytes> received;
};

struct FaultWorld {
  FaultWorld() : project("store", "tenet store app v1\n", nullptr) {
    const sgx::AttestationConfig cfg = project.policy();
    const sgx::Authority* auth = &authority;
    image = project.build();
    image.factory = [auth, cfg] {
      return std::make_unique<StoreApp>(*auth, cfg);
    };
    a = std::make_unique<EnclaveNode>(sim, authority, "fw-a",
                                      project.foundation(), image);
    b = std::make_unique<EnclaveNode>(sim, authority, "fw-b",
                                      project.foundation(), image);
    a->start();
    b->start();
  }

  uint64_t received(EnclaveNode& n) { return crypto::read_u64(n.control(2), 0); }

  void send(EnclaveNode& from, netsim::NodeId to, std::string_view text) {
    crypto::Bytes arg;
    crypto::append_u32(arg, to);
    crypto::append_lv(arg, crypto::to_bytes(text));
    (void)from.control(1, arg);
  }

  netsim::Simulator sim;
  sgx::Authority authority;
  OpenProject project;
  sgx::EnclaveImage image;
  std::unique_ptr<EnclaveNode> a, b;
};

TEST(FaultInjection, PartitionDuringAttestationStallsCleanly) {
  FaultWorld w;
  w.sim.fault_plan().set_link(w.a->id(), w.b->id(), {.loss = 1});
  w.a->connect_to(w.b->id());
  w.sim.run();
  // No progress, no crash, no partially-attested state.
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 0u);
  EXPECT_EQ(w.b->query(kQueryAttestedPeerCount), 0u);

  // Heal + retry from the host: must complete (disconnect drops the
  // half-open challenger session first).
  w.sim.fault_plan().set_link(w.a->id(), w.b->id(), {});
  w.a->disconnect_from(w.b->id());
  w.a->connect_to(w.b->id());
  w.sim.run();
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);
}

TEST(FaultInjection, LostAttestationMessageIsRetryable) {
  FaultWorld w;
  // 100% loss for the first exchange: msg1 vanishes.
  w.sim.fault_plan().set_link(w.a->id(), w.b->id(), {.loss = 1});
  w.a->connect_to(w.b->id());
  w.sim.run();
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 0u);

  w.sim.fault_plan().set_link(w.a->id(), w.b->id(), {});
  w.a->disconnect_from(w.b->id());
  w.a->connect_to(w.b->id());
  w.sim.run();
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);
}

TEST(FaultInjection, LossNeverCorruptsDeliveredMessages) {
  FaultWorld w;
  w.a->connect_to(w.b->id());
  w.sim.run();
  ASSERT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);

  // 30% loss: some records vanish, but every delivered one authenticates
  // and replay protection tolerates the gaps (forward-only sequence).
  w.sim.fault_plan().set_link(w.a->id(), w.b->id(), {.loss = 0.3});
  constexpr int kSends = 200;
  for (int i = 0; i < kSends; ++i) {
    w.send(*w.a, w.b->id(), "msg-" + std::to_string(i));
  }
  w.sim.run();
  const uint64_t got = w.received(*w.b);
  EXPECT_GT(got, static_cast<uint64_t>(kSends) / 2);
  EXPECT_LT(got, static_cast<uint64_t>(kSends));
  // Nothing was rejected: loss is absence, not corruption.
  EXPECT_EQ(w.b->query(kQueryRejectedRecords), 0u);
}

TEST(FaultInjection, CrashDuringHandshakeThenRecovery) {
  FaultWorld w;
  // B crashes right after A sends its challenge (msg1 in flight).
  w.a->connect_to(w.b->id());
  w.b->relaunch();  // wipes the half-open target state
  w.sim.run();
  // The challenge landed on the NEW instance, which happily answers it —
  // or, if timing dropped it, nothing happened. Either way no stuck state:
  const uint64_t attested = w.a->query(kQueryAttestedPeerCount);
  if (attested == 0) {
    w.a->disconnect_from(w.b->id());
    w.a->connect_to(w.b->id());
    w.sim.run();
  }
  EXPECT_EQ(w.a->query(kQueryAttestedPeerCount), 1u);
  w.send(*w.a, w.b->id(), "post-recovery");
  w.sim.run();
  EXPECT_EQ(w.received(*w.b), 1u);
}

TEST(FaultInjection, AdversaryFloodOfGarbageIsAbsorbed) {
  FaultWorld w;
  w.a->connect_to(w.b->id());
  w.sim.run();

  // The network attacker injects garbage on every port.
  crypto::Drbg rng = crypto::Drbg::from_label(77, "fault.flood");
  for (uint32_t port : {kPortAttestChallenge, kPortAttestResponse,
                        kPortAttestConfirm, kPortSecure, kPortPlain}) {
    for (int i = 0; i < 20; ++i) {
      w.sim.post(netsim::Message{/*src=*/9999, w.b->id(), port,
                                 rng.bytes(1 + rng.uniform(600))});
    }
  }
  w.sim.run();
  // Service unaffected.
  w.send(*w.a, w.b->id(), "still alive");
  w.sim.run();
  EXPECT_EQ(w.received(*w.b), 1u);
  EXPECT_EQ(w.b->query(kQueryAttestedPeerCount), 1u);
}

TEST(FaultInjection, GarbageCannotCompleteAttestation) {
  FaultWorld w;
  // Forge a plausible-length "response" to a real challenge.
  w.a->connect_to(w.b->id());
  crypto::Drbg rng = crypto::Drbg::from_label(78, "fault.forge");
  w.sim.post(netsim::Message{w.b->id(), w.a->id(), kPortAttestResponse,
                             rng.bytes(700)});
  w.sim.run();
  // Either the genuine response won (attested via real protocol) or the
  // garbage killed the session — but garbage never YIELDS an attested
  // peer with a broken channel:
  if (w.a->query(kQueryAttestedPeerCount) == 1) {
    w.send(*w.a, w.b->id(), "check");
    w.sim.run();
    EXPECT_EQ(w.b->query(kQueryRejectedRecords), 0u);
  }
}

}  // namespace
}  // namespace tenet::core
