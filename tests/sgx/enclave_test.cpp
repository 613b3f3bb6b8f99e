#include "sgx/enclave.h"

#include <gtest/gtest.h>

#include "sgx/adversary.h"
#include "sgx/apps.h"
#include "sgx/platform.h"

namespace tenet::sgx {
namespace {

struct World {
  Authority authority;
  Vendor vendor{"test-vendor"};
  Platform platform{authority, "host-A"};
};

TEST(Enclave, LaunchAndEcall) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  EXPECT_TRUE(e.alive());
  EXPECT_EQ(e.measurement(), apps::echo_image().measure());
  const crypto::Bytes out = e.ecall(apps::kEchoReverse, crypto::to_bytes("abc"));
  EXPECT_EQ(crypto::to_string(out), "cba");
}

TEST(Enclave, LaunchChargesPrivilegedInstructions) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  // ECREATE + per-page (EADD + 16 EEXTEND) + EINIT.
  const uint64_t pages = apps::echo_image().page_count();
  EXPECT_EQ(e.cost().sgx_priv_instructions(), 1 + pages * 17 + 1);
  EXPECT_EQ(e.cost().sgx_user_instructions(), 0u);  // launch is privileged
}

TEST(Enclave, EcallChargesEnterExitAndCopies) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  const auto before = e.cost().snapshot();
  (void)e.ecall(apps::kEchoReverse, crypto::Bytes(100, 1));
  const auto d = e.cost().delta(before);
  EXPECT_EQ(d.sgx_user, 2u);  // EENTER + EEXIT
  // 100 bytes in + 100 bytes out, copied at boundary_bytes_per_instr.
  const uint64_t rate = e.cost().constants().boundary_bytes_per_instr;
  EXPECT_EQ(d.normal, 2 * ((100 + rate - 1) / rate));
}

TEST(Enclave, OcallRoundTripAndAccounting) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  uint32_t seen_code = 0;
  e.set_ocall_handler([&](uint32_t code, crypto::BytesView payload) {
    seen_code = code;
    crypto::Bytes out(payload.begin(), payload.end());
    out.push_back('!');
    return out;
  });
  const auto before = e.cost().snapshot();
  const crypto::Bytes out = e.ecall(apps::kEchoOcall, crypto::to_bytes("ping"));
  EXPECT_EQ(crypto::to_string(out), "ping!");
  EXPECT_EQ(seen_code, 0x42u);
  // EENTER + (EEXIT + ERESUME for the ocall) + EEXIT.
  EXPECT_EQ(e.cost().delta(before).sgx_user, 4u);
}

TEST(Enclave, OcallWithoutHandlerFaults) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  EXPECT_THROW((void)e.ecall(apps::kEchoOcall, {}), HardwareFault);
}

TEST(Enclave, HeapAllocGrowsEpcAndChargesAllocatorWork) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  const size_t image_pages = w.platform.epc().pages_of(e.id());
  const auto before = e.cost().snapshot();

  crypto::Bytes arg;
  crypto::append_u32(arg, 3 * kPageSize + 1);  // needs 4 pages
  (void)e.ecall(apps::kEchoAlloc, arg);

  EXPECT_EQ(w.platform.epc().pages_of(e.id()), image_pages + 4);
  const auto d = e.cost().delta(before);
  EXPECT_EQ(d.sgx_user, 2u);  // EENTER/EEXIT only (SGX1: no EACCEPT)
  EXPECT_EQ(d.sgx_priv, 4u);  // 4 EAUG (book-keeping, excluded from tables)
  // The allocator work lands in normal instructions.
  EXPECT_GE(d.normal, 4 * e.cost().constants().per_page_zero);
}

TEST(Enclave, HeapAllocIsHighWaterMark) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  crypto::Bytes arg;
  crypto::append_u32(arg, 100);
  (void)e.ecall(apps::kEchoAlloc, arg);  // page 1
  const size_t pages_after_first = w.platform.epc().pages_of(e.id());
  (void)e.ecall(apps::kEchoAlloc, arg);  // still within page 1
  EXPECT_EQ(w.platform.epc().pages_of(e.id()), pages_after_first);
}

TEST(Enclave, InEnclaveFaultExitsCleanly) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  EXPECT_THROW((void)e.ecall(apps::kEchoThrow, {}), std::runtime_error);
  // The TCS is released; further calls work.
  EXPECT_EQ(crypto::to_string(e.ecall(apps::kEchoReverse, crypto::to_bytes("xy"))),
            "yx");
}

TEST(Enclave, DestroyedEnclaveRefusesEntry) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  e.destroy();
  EXPECT_FALSE(e.alive());
  EXPECT_THROW((void)e.ecall(apps::kEchoReverse, {}), HardwareFault);
  EXPECT_EQ(w.platform.epc().pages_of(e.id()), 0u);
}

TEST(Enclave, TamperedEpcPageFaultsOnNextEntry) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  (void)e.ecall(apps::kEchoReverse, crypto::to_bytes("ok"));
  ASSERT_TRUE(w.platform.epc().adversary_corrupt(e.id(), 0, 123));
  EXPECT_THROW((void)e.ecall(apps::kEchoReverse, crypto::to_bytes("x")),
               HardwareFault);
}

TEST(Enclave, TamperedZeroHeapPageFaultsOnNextEntry) {
  // A heap page that was allocated but never written has no ciphertext
  // until something observes it; corrupting it must still fault.
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  crypto::Bytes arg;
  crypto::append_u32(arg, 100);
  (void)e.ecall(apps::kEchoAlloc, arg);
  ASSERT_TRUE(w.platform.epc().resident(e.id(), kHeapBaseVaddr));
  ASSERT_TRUE(w.platform.epc().adversary_corrupt(e.id(), kHeapBaseVaddr, 7));
  EXPECT_THROW((void)e.ecall(apps::kEchoReverse, crypto::to_bytes("x")),
               HardwareFault);
}

TEST(Enclave, TamperFaultRepeatsUntilRestart) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  const EnclaveId old_id = e.id();
  ASSERT_TRUE(w.platform.epc().adversary_corrupt(old_id, 0, 123));
  for (int entry = 0; entry < 3; ++entry) {
    EXPECT_THROW((void)e.ecall(apps::kEchoReverse, crypto::to_bytes("x")),
                 HardwareFault)
        << "entry " << entry;
  }
  Enclave& fresh = w.platform.restart_enclave(old_id);
  EXPECT_NE(fresh.id(), old_id);
  EXPECT_EQ(w.platform.epc().pages_of(old_id), 0u);
  for (int entry = 0; entry < 3; ++entry) {
    EXPECT_EQ(crypto::to_string(
                  fresh.ecall(apps::kEchoReverse, crypto::to_bytes("ok"))),
              "ko");
  }
}

TEST(Enclave, EinitRejectsBadSigstruct) {
  World w;
  const EnclaveImage image = apps::echo_image();
  SigStruct s = w.vendor.sign(image, 1);
  s.mr_enclave[5] ^= 1;  // signature no longer covers this measurement
  EXPECT_THROW(w.platform.launch(s, image), HardwareFault);
}

TEST(Enclave, EinitRejectsMismatchedImage) {
  World w;
  // Sigstruct for variant 0, but the host loads a patched image — the
  // §3.2 "curious volunteer" attack at launch time.
  const SigStruct s = w.vendor.sign(apps::echo_image(0), 1);
  const EnclaveImage patched =
      adversary::patch_image(apps::echo_image(0), "spy on traffic");
  EXPECT_THROW(w.platform.launch(s, patched), HardwareFault);
}

TEST(Enclave, SealKeyStablePerEnclaveIdentity) {
  World w;
  Enclave& e1 = w.platform.launch(w.vendor, apps::echo_image(0));
  Enclave& e2 = w.platform.launch(w.vendor, apps::echo_image(0));
  Enclave& e3 = w.platform.launch(w.vendor, apps::echo_image(1));
  const crypto::Bytes k1 = e1.ecall(apps::kEchoSealKey, {});
  const crypto::Bytes k2 = e2.ecall(apps::kEchoSealKey, {});
  const crypto::Bytes k3 = e3.ecall(apps::kEchoSealKey, {});
  EXPECT_EQ(k1, k2);  // same measurement, same platform -> same seal key
  EXPECT_NE(k1, k3);  // different measurement -> different key
}

TEST(Enclave, SealKeyDiffersAcrossPlatforms) {
  World w;
  Platform other(w.authority, "host-B");
  Enclave& e1 = w.platform.launch(w.vendor, apps::echo_image(0));
  Enclave& e2 = other.launch(w.vendor, apps::echo_image(0));
  EXPECT_NE(e1.ecall(apps::kEchoSealKey, {}), e2.ecall(apps::kEchoSealKey, {}));
}

TEST(Platform, DuplicateNamesRejected) {
  Authority authority;
  Platform a(authority, "same");
  EXPECT_THROW(Platform(authority, "same"), std::invalid_argument);
}

TEST(Platform, QuotingEnclaveHasWellKnownMeasurement) {
  World w;
  Platform other(w.authority, "host-B");
  EXPECT_EQ(w.platform.quoting_enclave().measurement(),
            Platform::quoting_enclave_measurement());
  EXPECT_EQ(other.quoting_enclave().measurement(),
            Platform::quoting_enclave_measurement());
}

}  // namespace
}  // namespace tenet::sgx
