// Switchless transition tests (DESIGN.md §10): the ring's deterministic
// worker model (park/wakeup, spin budget, full-ring fallback, FIFO
// wrap-around), the enclave-level routing, and the exact agreement
// between ring stats, cost-model counters and telemetry.
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
  EXPECT_EQ(ring.stats().wakeups, 1u);
  EXPECT_EQ(ring.stats().fallbacks_asleep, 1u);
  // Worker is now polling: the next call is served through the ring.
  EXPECT_EQ(ring.begin_call(), SwitchlessOutcome::kHit);
  EXPECT_EQ(ring.stats().hits, 1u);
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
  EXPECT_EQ(ring.stats().wakeups, 2u);
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
  EXPECT_EQ(ring.stats().fallbacks_full, 1u);

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
  uint32_t next = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    while (!ring.full()) {
      ASSERT_EQ(ring.begin_call(), SwitchlessOutcome::kHit);
      crypto::Bytes payload;
      crypto::append_u32(payload, next);
      ring.push(next++, payload);
    }
    (void)ring.drain([&](uint32_t code, const crypto::Bytes& payload) {
      ASSERT_EQ(crypto::read_u32(payload, 0), code);
      seen.push_back(code);
    });
  }
  ASSERT_EQ(seen.size(), 30u);
  for (uint32_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(ring.stats().drained, 30u);
  EXPECT_EQ(ring.stats().hits, 30u);
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

  const SwitchlessRing* ocall_ring = swl.enclave->ocall_ring();
  const SwitchlessRing* ecall_ring = swl.enclave->ecall_ring();
  ASSERT_NE(ocall_ring, nullptr);
  ASSERT_NE(ecall_ring, nullptr);
  // Every ocall the app made is exactly one hit or one fallback, and
  // every deferred request was eventually drained.
  const auto& os = ocall_ring->stats();
  EXPECT_EQ(os.hits + os.fallbacks(), 21u);  // net-open + 20 sends
  EXPECT_EQ(os.drained, os.hits);            // all deferred sends executed
  EXPECT_GT(os.fallbacks_full, 0u);          // capacity 4 forces full rings
  // The cost model agrees with the rings' own tallies.
  const CostModel& cost = swl.enclave->cost();
  EXPECT_EQ(cost.switchless_hits(),
            os.hits + ecall_ring->stats().hits);
  EXPECT_EQ(cost.switchless_fallbacks(),
            os.fallbacks() + ecall_ring->stats().fallbacks());
}

TEST(SwitchlessEnclave, TamperedPageFaultsOnASwitchlessHit) {
  // A switchless ecall executes no EENTER, but it still runs on EPC pages:
  // the entry integrity check must fault exactly as on a synchronous one.
  SwitchlessWorld swl(true);
  (void)swl.run(1);  // wakes the ecall worker
  const SwitchlessRing* ring = swl.enclave->ecall_ring();
  const uint64_t hits_before = ring->stats().hits;
  (void)swl.run(1);
  ASSERT_EQ(ring->stats().hits, hits_before + 1);  // served through the ring
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

  const auto& os = swl.enclave->ocall_ring()->stats();
  const auto& es = swl.enclave->ecall_ring()->stats();
  const CostModel& cost = swl.enclave->cost();

  // Telemetry (counted at the instrumentation sites) == ring stats ==
  // cost-model bookkeeping, as absolute values.
  EXPECT_EQ(counted("sgx.switchless.hits"), os.hits + es.hits);
  EXPECT_EQ(counted("sgx.switchless.hits"), cost.switchless_hits());
  EXPECT_EQ(counted("sgx.switchless.fallbacks_asleep"),
            os.fallbacks_asleep + es.fallbacks_asleep);
  EXPECT_EQ(counted("sgx.switchless.fallbacks_full"),
            os.fallbacks_full + es.fallbacks_full);
  EXPECT_EQ(counted("sgx.switchless.fallbacks_asleep") +
                counted("sgx.switchless.fallbacks_full"),
            cost.switchless_fallbacks());
  EXPECT_EQ(counted("sgx.switchless.wakeups"), os.wakeups + es.wakeups);
  EXPECT_EQ(counted("sgx.switchless.drained"), os.drained + es.drained);
  // And the transition counters still agree with the cost model (the
  // switchless paths must not fire sgx.eenter/eexit/eresume).
  EXPECT_EQ(counted("sgx.eenter"), cost.user_count(UserInstr::kEEnter));
  EXPECT_EQ(counted("sgx.eexit"), cost.user_count(UserInstr::kEExit));
  EXPECT_EQ(counted("sgx.eresume"), cost.user_count(UserInstr::kEResume));

  // Occupancy histogram: one sample per ocall-ring hit (the ecall ring
  // records its own metric), samples bounded by the ring capacity.
  const auto& occ = telemetry::registry().histogram(
      "sgx.switchless.ocall_ring_occupancy");
  EXPECT_EQ(occ.count(), os.hits);
  EXPECT_LE(occ.max(), swl.enclave->ocall_ring()->config().ring_capacity);
}

#endif  // TENET_TELEMETRY_ENABLED

}  // namespace
}  // namespace tenet::sgx
