#include "sgx/epc.h"

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "crypto/rng.h"
#include "test_seed.h"

namespace tenet::sgx {
namespace {

crypto::Bytes mee_key() { return crypto::Bytes(32, 0x5a); }

TEST(Epc, AddAndReadBackPage) {
  Epc epc(mee_key());
  const crypto::Bytes content = crypto::to_bytes("enclave code page");
  epc.add_page(1, 0, content);
  const crypto::Bytes page = epc.read_page(1, 0);
  ASSERT_EQ(page.size(), kPageSize);
  EXPECT_TRUE(std::equal(content.begin(), content.end(), page.begin()));
  EXPECT_EQ(epc.pages_in_use(), 1u);
}

TEST(Epc, PagesArePaddedToPageSize) {
  Epc epc(mee_key());
  epc.add_page(1, 0, crypto::Bytes{1, 2, 3});
  const crypto::Bytes page = epc.read_page(1, 0);
  EXPECT_EQ(page.size(), kPageSize);
  EXPECT_EQ(page[3], 0);
}

TEST(Epc, RejectsDuplicateMapping) {
  Epc epc(mee_key());
  epc.add_page(1, 0, {});
  EXPECT_THROW(epc.add_page(1, 0, {}), HardwareFault);
}

TEST(Epc, RejectsOversizedPage) {
  Epc epc(mee_key());
  EXPECT_THROW(epc.add_page(1, 0, crypto::Bytes(kPageSize + 1, 0)),
               HardwareFault);
}

TEST(Epc, CapacityPressureSpillsInsteadOfFailing) {
  // With EWB/ELDU paging, a full EPC evicts rather than refusing: the
  // third page maps fine, and at most two stay resident.
  Epc epc(mee_key(), /*capacity_pages=*/2);
  epc.add_page(1, 0, {});
  epc.add_page(1, 1, {});
  EXPECT_NO_THROW(epc.add_page(1, 2, {}));
  EXPECT_LE(epc.pages_in_use(), 2u);
  EXPECT_EQ(epc.pages_of(1), 3u);
}

TEST(Epc, UnmappedAccessFaults) {
  Epc epc(mee_key());
  EXPECT_THROW((void)epc.read_page(1, 0), HardwareFault);
  EXPECT_THROW(epc.write_page(1, 0, {}), HardwareFault);
}

TEST(Epc, WriteUpdatesContent) {
  Epc epc(mee_key());
  epc.add_page(1, 0, crypto::to_bytes("before"));
  epc.write_page(1, 0, crypto::to_bytes("after!"));
  const crypto::Bytes page = epc.read_page(1, 0);
  EXPECT_TRUE(std::equal(page.begin(), page.begin() + 6,
                         crypto::to_bytes("after!").begin()));
}

TEST(Epc, RemoveEnclaveFreesOnlyItsPages) {
  Epc epc(mee_key());
  epc.add_page(1, 0, {});
  epc.add_page(1, 1, {});
  epc.add_page(2, 0, {});
  epc.remove_enclave(1);
  EXPECT_EQ(epc.pages_in_use(), 1u);
  EXPECT_EQ(epc.pages_of(1), 0u);
  EXPECT_EQ(epc.pages_of(2), 1u);
  EXPECT_NO_THROW((void)epc.read_page(2, 0));
}

TEST(Epc, AdversaryReadSeesOnlyCiphertext) {
  Epc epc(mee_key());
  const crypto::Bytes secret = crypto::to_bytes("routing policy: prefer AS42");
  epc.add_page(7, 0, secret);
  const auto ct = epc.adversary_read_ciphertext(7, 0);
  ASSERT_TRUE(ct.has_value());
  // The plaintext must not appear anywhere in what the OS can read.
  const auto it = std::search(ct->begin(), ct->end(), secret.begin(), secret.end());
  EXPECT_EQ(it, ct->end());
  EXPECT_FALSE(epc.adversary_read_ciphertext(7, 99).has_value());
}

TEST(Epc, AdversaryCorruptionDetectedOnRead) {
  Epc epc(mee_key());
  epc.add_page(7, 0, crypto::to_bytes("integrity-protected"));
  ASSERT_TRUE(epc.adversary_corrupt(7, 0, /*byte_offset=*/100));
  EXPECT_THROW((void)epc.read_page(7, 0), HardwareFault);
  EXPECT_THROW(epc.verify_owner_pages(7), HardwareFault);
}

TEST(Epc, CorruptionOfOtherEnclaveDoesNotAffectVictim) {
  Epc epc(mee_key());
  epc.add_page(1, 0, crypto::to_bytes("victim"));
  epc.add_page(2, 0, crypto::to_bytes("other"));
  ASSERT_TRUE(epc.adversary_corrupt(2, 0, 5));
  EXPECT_NO_THROW(epc.verify_owner_pages(1));
  EXPECT_THROW(epc.verify_owner_pages(2), HardwareFault);
}

TEST(Epc, VerifyCleanPagesPasses) {
  Epc epc(mee_key());
  for (uint64_t v = 0; v < 8; ++v) epc.add_page(3, v, {});
  EXPECT_NO_THROW(epc.verify_owner_pages(3));
}

TEST(Epc, PressureFaultNamesTheRequestingEnclave) {
  // An EPC with no evictable room at all: the pressure fault is a typed
  // error carrying WHICH enclave's request could not be satisfied, so
  // hosts can kill/restart the right tenant instead of guessing.
  Epc epc(mee_key(), /*capacity_pages=*/0);
  try {
    epc.add_page(/*owner=*/42, /*vaddr=*/0, crypto::to_bytes("page"));
    FAIL() << "expected EpcPressureError";
  } catch (const EpcPressureError& e) {
    EXPECT_EQ(e.requester(), 42u);
    EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
  }
}

TEST(Epc, PressureFaultIsStillAHardwareFault) {
  // Existing callers that only know HardwareFault keep working.
  Epc epc(mee_key(), /*capacity_pages=*/0);
  EXPECT_THROW(epc.add_page(7, 0, {}), HardwareFault);
}

TEST(Epc, DifferentMeeKeysProduceDifferentCiphertext) {
  Epc a(crypto::Bytes(32, 1));
  Epc b(crypto::Bytes(32, 2));
  const crypto::Bytes content = crypto::to_bytes("same plaintext");
  a.add_page(1, 0, content);
  b.add_page(1, 0, content);
  EXPECT_NE(*a.adversary_read_ciphertext(1, 0), *b.adversary_read_ciphertext(1, 0));
}

// Differential property test: the entry check (verify_owner_pages, which
// opens only the pages the adversary wrote) must fault exactly when a
// check of every resident page would, i.e. when read_page faults on at
// least one of the owner's resident pages. Random interleavings over three
// owners and a 6-page EPC, so pages are evicted and reloaded throughout.
TEST(Epc, EntryCheckMatchesFullResidentSweep) {
  constexpr EnclaveId kOwners = 3;
  constexpr uint64_t kVaddrs = 5;
  constexpr std::array<size_t, 3> kOffsets{0, 100, 4000};
  crypto::Drbg rng = crypto::Drbg::from_label(test::seed(2015), "epc.suspect");
  Epc epc(mee_key(), /*capacity_pages=*/6);
  std::map<std::pair<EnclaveId, uint64_t>, crypto::Bytes> snapshots;

  size_t entry_faults = 0;
  size_t clean_entries = 0;
  for (int step = 0; step < 3000; ++step) {
    const EnclaveId o = 1 + rng.uniform(kOwners);
    const uint64_t v = rng.uniform(kVaddrs);
    // Each operation may fault (a corrupt victim blocks EWB, a corrupt or
    // rolled-back spill blocks ELDU); the oracle below must hold anyway.
    try {
      switch (rng.uniform(10)) {
        case 0:
          if (rng.uniform(2) == 0) {
            epc.add_page(o, v, {});
          } else {
            epc.add_page(o, v, rng.bytes(1 + rng.uniform(kPageSize)));
          }
          break;
        case 1:
          epc.write_page(o, v, rng.bytes(rng.uniform(64)));
          break;
        case 2:
          (void)epc.read_page(o, v);  // reloads a spilled page
          break;
        case 3:
          epc.evict_page(o, v);
          break;
        case 4:
        case 5:
          (void)epc.adversary_corrupt(o, v, kOffsets[rng.uniform(3)]);
          break;
        case 6:
          if (auto snap = epc.adversary_snapshot_spill(o, v)) {
            snapshots[{o, v}] = std::move(*snap);
          }
          break;
        case 7:
          if (const auto it = snapshots.find({o, v}); it != snapshots.end()) {
            (void)epc.adversary_replace_spill(o, v, it->second);
          }
          break;
        case 8:
          if (rng.uniform(4) == 0) epc.remove_enclave(o);
          break;
        default:
          epc.evict_page(o, rng.uniform(kVaddrs));
          break;
      }
    } catch (const HardwareFault&) {
    }

    for (EnclaveId owner = 1; owner <= kOwners; ++owner) {
      bool resident_page_faults = false;
      for (uint64_t vaddr = 0; vaddr < kVaddrs; ++vaddr) {
        if (!epc.resident(owner, vaddr)) continue;
        try {
          (void)epc.read_page(owner, vaddr);
        } catch (const HardwareFault&) {
          resident_page_faults = true;
        }
      }
      bool entry_faults_now = false;
      try {
        epc.verify_owner_pages(owner);
      } catch (const HardwareFault&) {
        entry_faults_now = true;
      }
      ASSERT_EQ(entry_faults_now, resident_page_faults)
          << "step " << step << ", owner " << owner;
      ++(entry_faults_now ? entry_faults : clean_entries);
    }
  }
  // The interleaving must have exercised both outcomes and the paging path.
  EXPECT_GT(entry_faults, 0u);
  EXPECT_GT(clean_entries, 0u);
  EXPECT_GT(epc.evictions(), 0u);
  EXPECT_GT(epc.reloads(), 0u);
}

}  // namespace
}  // namespace tenet::sgx
