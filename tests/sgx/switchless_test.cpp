// Switchless transition tests (DESIGN.md §10): the ring's deterministic
// worker model (park/wakeup, spin budget, full-ring fallback, FIFO
// wrap-around), the enclave-level routing, and the exact switchless counts
// the cost model tallies and exports to telemetry.
#include <gtest/gtest.h>

#include "sgx/apps.h"
#include "sgx/platform.h"
#include "sgx/switchless.h"
#include "telemetry/telemetry.h"

namespace tenet::sgx {
namespace {

using apps::SendRunRequest;

// --- SwitchlessRing unit tests -----------------------------------------

TEST(SwitchlessRing, WorkersStartParkedAndWakeOnFallback) {
  SwitchlessRing ring({/*ring_capacity=*/4, /*spin_budget=*/8}, "t.occ");
  EXPECT_TRUE(ring.worker_asleep());
  // First call pays the wakeup; the fallback transition is the kick.
  EXPECT_EQ(ring.begin_call(), SwitchlessOutcome::kFallbackAsleep);
  EXPECT_FALSE(ring.worker_asleep());
  // Worker is now polling: the next call is served through the ring.
  EXPECT_EQ(ring.begin_call(), SwitchlessOutcome::kHit);
}

TEST(SwitchlessRing, SpinBudgetParksTheWorkerAgain) {
  SwitchlessRing ring({4, /*spin_budget=*/3}, "t.occ");
  (void)ring.begin_call();  // wake
  ASSERT_FALSE(ring.worker_asleep());
  // Each synchronous transition over an EMPTY ring burns one poll.
  ring.note_sync_transition();
  ring.note_sync_transition();
  EXPECT_FALSE(ring.worker_asleep());
  ring.note_sync_transition();
  EXPECT_TRUE(ring.worker_asleep());
  EXPECT_EQ(ring.begin_call(), SwitchlessOutcome::kFallbackAsleep);
}

TEST(SwitchlessRing, PendingWorkKeepsTheWorkerBusy) {
  SwitchlessRing ring({4, /*spin_budget=*/1}, "t.occ");
  (void)ring.begin_call();  // wake (fallback)
  ASSERT_EQ(ring.begin_call(), SwitchlessOutcome::kHit);
  ring.push(1, crypto::to_bytes("a"));
  // A non-empty ring means the worker is working, not idling: sync
  // transitions do NOT burn its spin budget.
  for (int i = 0; i < 10; ++i) ring.note_sync_transition();
  EXPECT_FALSE(ring.worker_asleep());
}

TEST(SwitchlessRing, FullRingFallsBackAndDrainRestoresService) {
  SwitchlessRing ring({/*ring_capacity=*/2, 8}, "t.occ");
  (void)ring.begin_call();  // wake
  for (uint32_t i = 0; i < 2; ++i) {
    ASSERT_EQ(ring.begin_call(), SwitchlessOutcome::kHit);
    ring.push(i, crypto::to_bytes("p"));
  }
  ASSERT_TRUE(ring.full());
  EXPECT_EQ(ring.begin_call(), SwitchlessOutcome::kFallbackFull);

  std::vector<uint32_t> order;
  EXPECT_EQ(ring.drain([&](uint32_t code, const crypto::Bytes&) {
    order.push_back(code);
  }), 2u);
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 1}));
  EXPECT_FALSE(ring.full());
  EXPECT_EQ(ring.begin_call(), SwitchlessOutcome::kHit);
}

TEST(SwitchlessRing, WrapAroundPreservesFifoOrder) {
  // Many fill/drain cycles through a tiny ring: submission order must
  // survive every wrap of the (logical) slot indices.
  SwitchlessRing ring({/*ring_capacity=*/3, 64}, "t.occ");
  (void)ring.begin_call();  // wake
  std::vector<uint32_t> seen;
  size_t drained = 0;
  uint32_t next = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    while (!ring.full()) {
      ASSERT_EQ(ring.begin_call(), SwitchlessOutcome::kHit);
      crypto::Bytes payload;
      crypto::append_u32(payload, next);
      ring.push(next++, payload);
    }
    drained += ring.drain([&](uint32_t code, const crypto::Bytes& payload) {
      ASSERT_EQ(crypto::read_u32(payload, 0), code);
      seen.push_back(code);
    });
  }
  ASSERT_EQ(seen.size(), 30u);
  for (uint32_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(drained, 30u);
}

// --- Enclave-level routing ---------------------------------------------

struct SwitchlessWorld {
  explicit SwitchlessWorld(bool switchless,
                           SwitchlessConfig config = {})
      : platform(authority, switchless ? "swl-host" : "sync-host") {
    enclave = &platform.launch(vendor, apps::packet_sender_image());
    if (switchless) enclave->enable_switchless(config);
    enclave->set_ocall_handler(
        [this](uint32_t code, crypto::BytesView payload) {
          handler_log.emplace_back(code,
                                   crypto::Bytes(payload.begin(),
                                                 payload.end()));
          return crypto::Bytes{};
        });
  }

  crypto::Bytes run(uint32_t packets) {
    SendRunRequest req;
    req.packet_count = packets;
    req.packet_size = 64;
    return enclave->ecall(apps::PacketFn::kSendRun, req.serialize());
  }

  Authority authority;
  Vendor vendor{"swl-vendor"};
  Platform platform;
  Enclave* enclave = nullptr;
  std::vector<std::pair<uint32_t, crypto::Bytes>> handler_log;
};

TEST(SwitchlessEnclave, ApplicationOutputIsByteIdentical) {
  SwitchlessWorld sync(false);
  SwitchlessWorld swl(true);
  // Identical workload, both modes: every ecall result and the exact
  // sequence of (code, payload) pairs the untrusted handler observes must
  // match byte for byte — only the cost accounting may differ.
  for (const uint32_t n : {1u, 5u, 100u}) {
    EXPECT_EQ(sync.run(n), swl.run(n));
  }
  EXPECT_EQ(sync.handler_log, swl.handler_log);
}

TEST(SwitchlessEnclave, TransitionsCollapseOnTheHotPath) {
  SwitchlessWorld sync(false);
  SwitchlessWorld swl(true);
  const auto sync_before = sync.enclave->cost().snapshot();
  const auto swl_before = swl.enclave->cost().snapshot();
  (void)sync.run(100);
  (void)swl.run(100);
  const auto sync_d = sync.enclave->cost().delta(sync_before);
  const auto swl_d = swl.enclave->cost().delta(swl_before);

  // Table 2 invariant intact in sync mode: 2N + 4 transitions.
  EXPECT_EQ(sync_d.transitions, 204u);
  EXPECT_EQ(sync_d.switchless_hits, 0u);
  // Switchless: first-ecall wakeup (2) + net-open wakeup (2) + one
  // ring-full fallback at 64 queued sends (2) — the acceptance criterion
  // is >= 5x fewer, this is 34x.
  EXPECT_EQ(swl_d.transitions, 6u);
  EXPECT_GE(sync_d.transitions, 5 * swl_d.transitions);
  EXPECT_EQ(swl_d.switchless_hits, 99u);
  EXPECT_EQ(swl_d.switchless_fallbacks, 3u);
}

TEST(SwitchlessEnclave, FallbackPathsAccountExactly) {
  // Tiny ring + tiny spin budget: exercise both fallback kinds.
  SwitchlessConfig config;
  config.ring_capacity = 4;
  config.spin_budget = 2;
  SwitchlessWorld swl(true, config);
  (void)swl.run(20);

  // Both workers start parked: the ecall and the net-open ocall fall back
  // and wake them. The 20 sends then repeat "4 hits fill the ring, the 5th
  // falls back and drains it": 16 hits and 4 ring-full fallbacks.
  const CostModel& cost = swl.enclave->cost();
  EXPECT_EQ(cost.switchless_hits(), 16u);
  EXPECT_EQ(cost.switchless_fallbacks(), 2u + 4u);
  // Every fallback is a full transition pair: the ecall's EENTER/EEXIT,
  // the net-open and 4 ring-full EEXIT/ERESUME pairs.
  EXPECT_EQ(cost.transitions(), 2u + 2u + 2u * 4);
  // Every ocall reached the untrusted handler exactly once, so every
  // deferred send was drained.
  EXPECT_EQ(swl.handler_log.size(), 21u);  // net-open + 20 sends
}

TEST(SwitchlessEnclave, TamperedPageFaultsOnASwitchlessHit) {
  // A switchless ecall executes no EENTER, but it still runs on EPC pages:
  // the entry integrity check must fault exactly as on a synchronous one.
  SwitchlessWorld swl(true);
  (void)swl.run(1);  // wakes the ecall worker
  const CostModel& cost = swl.enclave->cost();
  const uint64_t eenters_before = cost.user_count(UserInstr::kEEnter);
  (void)swl.run(1);
  // Served through the ring: no EENTER executed.
  ASSERT_EQ(cost.user_count(UserInstr::kEEnter), eenters_before);
  const SwitchlessRing* ring = swl.enclave->ecall_ring();
  ASSERT_FALSE(ring->worker_asleep());
  ASSERT_FALSE(ring->full());

  ASSERT_TRUE(
      swl.platform.epc().adversary_corrupt(swl.enclave->id(), 0, 42));
  EXPECT_THROW((void)swl.run(1), HardwareFault);
  EXPECT_THROW((void)swl.run(1), HardwareFault);
}

TEST(SwitchlessEnclave, SurvivesRelaunchDisabled) {
  // A fresh enclave instance of the same image starts with switchless off
  // unless re-enabled (EnclaveNode re-applies it; the raw Enclave API
  // does not) — the ring pointers must never dangle across destroy.
  SwitchlessWorld swl(true);
  (void)swl.run(5);
  Enclave& fresh = swl.platform.restart_enclave(swl.enclave->id());
  EXPECT_FALSE(fresh.switchless_enabled());
  EXPECT_EQ(fresh.ocall_ring(), nullptr);
}

#if TENET_TELEMETRY_ENABLED

struct TelemetryOn {
  TelemetryOn() {
    telemetry::registry().reset_values();
    telemetry::set_enabled(true);
  }
  ~TelemetryOn() { telemetry::set_enabled(false); }
};

uint64_t counted(const char* name) {
  return telemetry::registry().counter(name).value();
}

TEST(SwitchlessTelemetry, CountersCrossCheckExactly) {
  TelemetryOn on;
  SwitchlessWorld swl(true);
  (void)swl.run(100);
  const CostModel& cost = swl.enclave->cost();

  // The exported counters equal the cost model's tallies, and both equal
  // the counts the default ring produces: the ecall and the net-open wake
  // the two parked workers, 64 sends fill the ring, the 65th falls back and
  // drains it, and the last 35 are hits again.
  EXPECT_EQ(counted("sgx.switchless.hits"), cost.switchless_hits());
  EXPECT_EQ(counted("sgx.switchless.hits"), 99u);
  EXPECT_EQ(counted("sgx.switchless.fallbacks_asleep") +
                counted("sgx.switchless.fallbacks_full"),
            cost.switchless_fallbacks());
  EXPECT_EQ(counted("sgx.switchless.fallbacks_asleep"), 2u);
  EXPECT_EQ(counted("sgx.switchless.fallbacks_full"), 1u);
  EXPECT_EQ(counted("sgx.switchless.wakeups"), 2u);
  EXPECT_EQ(counted("sgx.switchless.drained"), 99u);
  // And the transition counters still agree with the cost model (the
  // switchless paths must not fire sgx.eenter/eexit/eresume).
  EXPECT_EQ(counted("sgx.eenter"), cost.user_count(UserInstr::kEEnter));
  EXPECT_EQ(counted("sgx.eexit"), cost.user_count(UserInstr::kEExit));
  EXPECT_EQ(counted("sgx.eresume"), cost.user_count(UserInstr::kEResume));

  // Occupancy histogram: one sample per ocall-ring hit (the ecall ring
  // records its own metric, and its one call fell back), samples bounded
  // by the ring capacity.
  const auto& occ = telemetry::registry().histogram(
      "sgx.switchless.ocall_ring_occupancy");
  EXPECT_EQ(occ.count(), 99u);
  EXPECT_LE(occ.max(), swl.enclave->ocall_ring()->config().ring_capacity);
}

#endif  // TENET_TELEMETRY_ENABLED

}  // namespace
}  // namespace tenet::sgx
