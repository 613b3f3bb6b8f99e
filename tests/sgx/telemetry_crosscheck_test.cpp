// Integration cross-check: the exported sgx.* counters must agree exactly
// with the cost model's and the EPC's tallies of the same events. Those two
// owners are the only writers of the counters (CostModel::charge_* and the
// Epc's EWB/ELDU/add paths), so these tests pin what the writers count:
// absolute values catch a double count inside a writer, and the
// failure-path test checks an event is counted only once it has happened.
#include <gtest/gtest.h>

#include "sgx/apps.h"
#include "sgx/epc.h"
#include "sgx/platform.h"
#include "telemetry/telemetry.h"

// These tests only make sense when the instrumentation is compiled in.
#if TENET_TELEMETRY_ENABLED

namespace tenet::sgx {
namespace {

/// Enables telemetry on a zeroed registry for one test's scope.
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

TEST(TelemetryCrosscheck, TransitionCountersMatchCostModel) {
  TelemetryOn on;
  Authority authority;
  Vendor vendor{"xcheck-vendor"};
  Platform platform{authority, "xcheck-host"};
  Enclave& e = platform.launch(vendor, apps::echo_image());
  e.set_ocall_handler([](uint32_t, crypto::BytesView payload) {
    return crypto::Bytes(payload.begin(), payload.end());
  });

  // A mixed workload: plain ecalls, an ocall round-trip (EEXIT + ERESUME),
  // and a heap allocation (EAUG pages).
  (void)e.ecall(apps::kEchoReverse, crypto::to_bytes("hello"));
  (void)e.ecall(apps::kEchoOcall, crypto::to_bytes("ping"));
  crypto::Bytes arg;
  crypto::append_u32(arg, 2 * kPageSize);
  (void)e.ecall(apps::kEchoAlloc, arg);

  const CostModel& cost = e.cost();
  EXPECT_EQ(counted("sgx.eenter"), cost.user_count(UserInstr::kEEnter));
  EXPECT_EQ(counted("sgx.eexit"), cost.user_count(UserInstr::kEExit));
  EXPECT_EQ(counted("sgx.eresume"), cost.user_count(UserInstr::kEResume));
  EXPECT_EQ(counted("sgx.eaug"), cost.priv_count(PrivInstr::kEAug));
  EXPECT_EQ(counted("sgx.eadd_pages"), cost.priv_count(PrivInstr::kEAdd));
  // Absolute values, so a double-count in BOTH tallies cannot hide.
  EXPECT_EQ(counted("sgx.eenter"), 3u);
  EXPECT_EQ(counted("sgx.eresume"), 1u);
  EXPECT_EQ(counted("sgx.ocall"), 1u);
  EXPECT_EQ(counted("sgx.enclave_launches"), 1u);
}

TEST(TelemetryCrosscheck, PagingCountersMatchEpcTallies) {
  TelemetryOn on;
  // Tiny EPC so adds force evictions; reads force reloads.
  Epc epc(crypto::Bytes(32, 0x55), /*capacity_pages=*/4);
  for (uint64_t v = 0; v < 10; ++v) {
    epc.add_page(1, v, crypto::Bytes(8, static_cast<uint8_t>(v)));
  }
  for (uint64_t v = 0; v < 10; ++v) (void)epc.read_page(1, v);

  ASSERT_GT(epc.evictions(), 0u);
  ASSERT_GT(epc.reloads(), 0u);
  EXPECT_EQ(counted("sgx.epc.ewb"), epc.evictions());
  EXPECT_EQ(counted("sgx.epc.eldu"), epc.reloads());
  EXPECT_EQ(counted("sgx.epc.pages_added"), 10u);
  // Every EWB and every ELDU is one MEE open + one MEE seal on top of the
  // seal done when the page was first added.
  EXPECT_EQ(counted("sgx.epc.mee_seals"),
            10u + epc.evictions() + epc.reloads());
  EXPECT_EQ(counted("sgx.epc.mee_opens"), epc.evictions() + epc.reloads());
}

TEST(TelemetryCrosscheck, MeeCountsMatchEagerSealing) {
  // The MEE seals a page, resident or spilled, only once its ciphertext
  // can be observed, but the counters tally what sealing every add, EWB
  // and ELDU would: a seal per add_page, an open and a seal per EWB and
  // per ELDU.
  // write_page, read_page and observations are not counted. The pinned
  // values are the ones the eagerly sealing MEE produced for this script.
  TelemetryOn on;
  Epc epc(crypto::Bytes(32, 0x99), /*capacity_pages=*/2);
  epc.add_page(1, 0, crypto::to_bytes("alpha"));
  epc.add_page(1, 1, {});  // a zero page
  epc.write_page(1, 0, crypto::to_bytes("beta"));
  (void)epc.read_page(1, 0);
  (void)epc.adversary_read_ciphertext(1, 0);
  (void)epc.read_page(1, 0);  // opens the observed ciphertext
  epc.add_page(1, 2, crypto::to_bytes("gamma"));  // evicts page 0
  (void)epc.adversary_read_ciphertext(1, 0);      // the spilled copy
  (void)epc.read_page(1, 0);  // reloads page 0, evicts page 1
  epc.evict_page(1, 2);
  epc.write_page(1, 1, crypto::to_bytes("delta"));  // reloads page 1
  (void)epc.adversary_read_ciphertext(1, 1);
  epc.verify_owner_pages(1);

  EXPECT_EQ(counted("sgx.epc.pages_added"), 3u);
  EXPECT_EQ(counted("sgx.epc.mee_seals"), 8u);
  EXPECT_EQ(counted("sgx.epc.mee_opens"), 5u);
  EXPECT_EQ(counted("sgx.epc.ewb"), 3u);
  EXPECT_EQ(counted("sgx.epc.eldu"), 2u);
  EXPECT_EQ(epc.evictions(), 3u);
  EXPECT_EQ(epc.reloads(), 2u);
}

TEST(TelemetryCrosscheck, RollbackDetectionIsCounted) {
  TelemetryOn on;
  Epc epc(crypto::Bytes(32, 0x66));
  epc.add_page(1, 0, crypto::to_bytes("v1"));
  epc.evict_page(1, 0);
  const auto old_spill = epc.adversary_snapshot_spill(1, 0);
  ASSERT_TRUE(old_spill.has_value());
  (void)epc.read_page(1, 0);  // reload
  epc.evict_page(1, 0);       // spill again with a fresh version
  ASSERT_TRUE(epc.adversary_replace_spill(1, 0, *old_spill));
  EXPECT_THROW((void)epc.read_page(1, 0), HardwareFault);
  EXPECT_EQ(counted("sgx.epc.rollbacks_detected"), 1u);
}

TEST(TelemetryCrosscheck, RejectedPagingRunsNoMeeOperation) {
  TelemetryOn on;
  Epc epc(crypto::Bytes(32, 0x88));
  epc.add_page(1, 0, crypto::to_bytes("v1"));
  epc.evict_page(1, 0);
  const auto old_spill = epc.adversary_snapshot_spill(1, 0);
  ASSERT_TRUE(old_spill.has_value());
  (void)epc.read_page(1, 0);  // reload
  epc.evict_page(1, 0);       // spill again with a fresh version
  ASSERT_TRUE(epc.adversary_replace_spill(1, 0, *old_spill));
  // One seal at add, then an open and a seal per EWB and per ELDU.
  ASSERT_EQ(counted("sgx.epc.mee_opens"), 3u);
  ASSERT_EQ(counted("sgx.epc.mee_seals"), 4u);

  // ELDU of the rolled-back spill fails the version check before the MEE
  // runs; EWB of a page that is spilled, or was never added, finds nothing
  // resident to open.
  EXPECT_THROW((void)epc.read_page(1, 0), HardwareFault);
  EXPECT_THROW(epc.evict_page(1, 0), HardwareFault);
  EXPECT_THROW(epc.evict_page(1, 7), HardwareFault);
  EXPECT_EQ(counted("sgx.epc.mee_opens"), 3u);
  EXPECT_EQ(counted("sgx.epc.mee_seals"), 4u);
}

TEST(TelemetryCrosscheck, FailedOperationsAreNotCounted) {
  TelemetryOn on;
  // An oversized page is refused before it is mapped.
  Epc epc(crypto::Bytes(32, 0x77));
  epc.add_page(1, 0, crypto::to_bytes("v1"));
  EXPECT_THROW(epc.add_page(1, 1, crypto::Bytes(kPageSize + 1, 1)),
               HardwareFault);
  EXPECT_EQ(counted("sgx.epc.pages_added"), 1u);

  // A rolled-back spill faults at ELDU: the page is not reloaded.
  epc.evict_page(1, 0);
  const auto old_spill = epc.adversary_snapshot_spill(1, 0);
  ASSERT_TRUE(old_spill.has_value());
  (void)epc.read_page(1, 0);  // reload
  epc.evict_page(1, 0);
  ASSERT_TRUE(epc.adversary_replace_spill(1, 0, *old_spill));
  EXPECT_THROW((void)epc.read_page(1, 0), HardwareFault);
  EXPECT_EQ(epc.reloads(), 1u);
  EXPECT_EQ(counted("sgx.epc.eldu"), epc.reloads());
  EXPECT_EQ(counted("sgx.epc.ewb"), epc.evictions());

  // EINIT rejects a sigstruct that covers a different image: nothing was
  // launched and no page was added.
  Authority authority;
  Vendor vendor{"xcheck-vendor"};
  Platform platform{authority, "xcheck-host"};
  const EnclaveImage image = apps::echo_image();
  EXPECT_THROW(
      (void)platform.launch(vendor.sign(apps::packet_sender_image(), 1), image),
      HardwareFault);
  EXPECT_EQ(counted("sgx.enclave_launches"), 0u);
  EXPECT_EQ(counted("sgx.eadd_pages"), 0u);
  const Enclave& e = platform.launch(vendor, image);
  EXPECT_EQ(counted("sgx.enclave_launches"), 1u);
  EXPECT_EQ(counted("sgx.eadd_pages"), e.cost().priv_count(PrivInstr::kEAdd));
}

}  // namespace
}  // namespace tenet::sgx

#endif  // TENET_TELEMETRY_ENABLED
