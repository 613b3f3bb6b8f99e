// EPC paging (EWB/ELDU) and rollback protection.
#include <gtest/gtest.h>

#include "sgx/epc.h"

namespace tenet::sgx {
namespace {

crypto::Bytes mee_key() { return crypto::Bytes(32, 0x77); }

TEST(EpcPaging, ExplicitEvictAndTransparentReload) {
  Epc epc(mee_key());
  const crypto::Bytes content = crypto::to_bytes("page me out");
  epc.add_page(1, 0, content);
  ASSERT_TRUE(epc.resident(1, 0));

  epc.evict_page(1, 0);
  EXPECT_FALSE(epc.resident(1, 0));
  EXPECT_EQ(epc.pages_of(1), 1u);  // still mapped, just not resident
  EXPECT_EQ(epc.evictions(), 1u);

  // Reading pages it back in transparently.
  const crypto::Bytes page = epc.read_page(1, 0);
  EXPECT_TRUE(std::equal(content.begin(), content.end(), page.begin()));
  EXPECT_TRUE(epc.resident(1, 0));
  EXPECT_EQ(epc.reloads(), 1u);
}

TEST(EpcPaging, CapacityPressureEvictsAutomatically) {
  Epc epc(mee_key(), /*capacity_pages=*/4);
  for (uint64_t v = 0; v < 10; ++v) {
    crypto::Bytes content;
    crypto::append_u64(content, v);
    epc.add_page(1, v, content);
  }
  EXPECT_LE(epc.pages_in_use(), 4u);
  EXPECT_EQ(epc.pages_of(1), 10u);  // all mapped, spilled as needed
  EXPECT_GE(epc.evictions(), 6u);

  // Every page still reads back correctly (round-tripping the spill).
  for (uint64_t v = 0; v < 10; ++v) {
    const crypto::Bytes page = epc.read_page(1, v);
    EXPECT_EQ(crypto::read_u64(page, 0), v) << "vaddr " << v;
  }
}

TEST(EpcPaging, WriteReloadsSpilledPage) {
  Epc epc(mee_key());
  epc.add_page(1, 0, crypto::to_bytes("v1"));
  epc.evict_page(1, 0);
  epc.write_page(1, 0, crypto::to_bytes("v2"));
  const crypto::Bytes page = epc.read_page(1, 0);
  EXPECT_EQ(page[1], '2');
}

TEST(EpcPaging, EvictNonResidentFaults) {
  Epc epc(mee_key());
  EXPECT_THROW(epc.evict_page(1, 0), HardwareFault);
  epc.add_page(1, 0, {});
  epc.evict_page(1, 0);
  EXPECT_THROW(epc.evict_page(1, 0), HardwareFault);  // already out
}

TEST(EpcPaging, DuplicateMappingOfSpilledPageRejected) {
  Epc epc(mee_key());
  epc.add_page(1, 0, {});
  epc.evict_page(1, 0);
  EXPECT_THROW(epc.add_page(1, 0, {}), HardwareFault);
}

TEST(EpcPaging, RollbackAttackDetected) {
  // The OS snapshots an old spilled copy, lets the enclave update the
  // page, then replays the stale snapshot — classic state-rollback.
  Epc epc(mee_key());
  epc.add_page(1, 0, crypto::to_bytes("balance=100"));
  epc.evict_page(1, 0);
  const auto old_snapshot = epc.adversary_snapshot_spill(1, 0);
  ASSERT_TRUE(old_snapshot.has_value());

  // Enclave pages it in, updates it, and it gets paged out again (new
  // version in the VA).
  epc.write_page(1, 0, crypto::to_bytes("balance=0"));
  epc.evict_page(1, 0);

  // The attacker replays the old "balance=100" copy.
  ASSERT_TRUE(epc.adversary_replace_spill(1, 0, *old_snapshot));
  EXPECT_THROW((void)epc.read_page(1, 0), HardwareFault);
}

TEST(EpcPaging, CorruptedSpillDetectedAtReload) {
  Epc epc(mee_key());
  epc.add_page(1, 0, crypto::to_bytes("spill integrity"));
  epc.evict_page(1, 0);
  ASSERT_TRUE(epc.adversary_corrupt(1, 0, 33));
  EXPECT_THROW((void)epc.read_page(1, 0), HardwareFault);
}

TEST(EpcPaging, ReloadWithNoEvictableVictimKeepsThePageSpilled) {
  // ELDU into a full EPC whose only other page is corrupt cannot make
  // room (EWB of the victim faults). The spilled page must survive that
  // fault and reload once the victim is whole again.
  Epc epc(mee_key(), /*capacity_pages=*/1);
  epc.add_page(1, 0, crypto::to_bytes("spilled"));
  epc.add_page(1, 1, crypto::to_bytes("victim"));  // evicts page 0
  ASSERT_FALSE(epc.resident(1, 0));
  ASSERT_TRUE(epc.adversary_corrupt(1, 1, 3));
  EXPECT_THROW((void)epc.read_page(1, 0), HardwareFault);
  EXPECT_EQ(epc.pages_of(1), 2u);

  ASSERT_TRUE(epc.adversary_corrupt(1, 1, 3));  // flipped back
  const crypto::Bytes page = epc.read_page(1, 0);
  EXPECT_TRUE(std::equal(page.begin(), page.begin() + 7,
                         crypto::to_bytes("spilled").begin()));
}

// EWB defers the spill's seal until the host looks at it. What the host
// then sees must be exactly what an eager EWB sealed: the page padded to
// 4 KB under the MEE key, on the owner's spill channel, with the EWB's
// version as the sequence number and the vaddr as AAD. In a fresh EPC the
// add takes version 1 and the EWB version 2.
TEST(EpcPaging, ObservedSpillIsTheEagerSeal) {
  constexpr EnclaveId kOwner = 3;
  constexpr uint64_t kVaddr = 9;
  const crypto::Bytes content = crypto::to_bytes("the spilled page's state");
  crypto::Bytes page = content;
  page.resize(kPageSize, 0);
  crypto::Bytes aad;
  crypto::append_u64(aad, kVaddr);
  const crypto::Bytes eager =
      crypto::Aead(mee_key()).seal(kOwner ^ 0x5350494Cu, 2, page, aad);

  // Read first, then snapshot.
  Epc epc(mee_key());
  epc.add_page(kOwner, kVaddr, content);
  epc.evict_page(kOwner, kVaddr);
  const crypto::Bytes ct = *epc.adversary_read_ciphertext(kOwner, kVaddr);
  EXPECT_EQ(crypto::Aead::record_seq(ct), 2u);
  EXPECT_EQ(ct, eager);
  EXPECT_EQ(*epc.adversary_read_ciphertext(kOwner, kVaddr), ct);
  crypto::Bytes snapshot;
  crypto::append_u64(snapshot, 2);
  crypto::append(snapshot, eager);
  EXPECT_EQ(*epc.adversary_snapshot_spill(kOwner, kVaddr), snapshot);

  // Snapshot first, then read; and a page the host saw sealed while
  // resident spills to the same bytes.
  Epc other(mee_key());
  other.add_page(kOwner, kVaddr, content);
  ASSERT_TRUE(other.adversary_read_ciphertext(kOwner, kVaddr).has_value());
  other.evict_page(kOwner, kVaddr);
  EXPECT_EQ(*other.adversary_snapshot_spill(kOwner, kVaddr), snapshot);
  EXPECT_EQ(*other.adversary_read_ciphertext(kOwner, kVaddr), eager);

  // An observed spill that is then corrupted still faults at ELDU, and
  // stays spilled.
  ASSERT_TRUE(epc.adversary_corrupt(kOwner, kVaddr, 100));
  EXPECT_THROW((void)epc.read_page(kOwner, kVaddr), HardwareFault);
  EXPECT_FALSE(epc.resident(kOwner, kVaddr));
  EXPECT_EQ(epc.reloads(), 0u);
}

TEST(EpcPaging, SpilledCiphertextHidesContent) {
  Epc epc(mee_key());
  const crypto::Bytes secret = crypto::to_bytes("the enclave's private state");
  epc.add_page(1, 0, secret);
  epc.evict_page(1, 0);
  const auto ct = epc.adversary_read_ciphertext(1, 0);
  ASSERT_TRUE(ct.has_value());
  EXPECT_EQ(std::search(ct->begin(), ct->end(), secret.begin(), secret.end()),
            ct->end());
}

TEST(EpcPaging, RemoveEnclaveClearsSpill) {
  Epc epc(mee_key());
  epc.add_page(1, 0, {});
  epc.add_page(1, 1, {});
  epc.evict_page(1, 0);
  epc.remove_enclave(1);
  EXPECT_EQ(epc.pages_of(1), 0u);
  EXPECT_FALSE(epc.adversary_read_ciphertext(1, 0).has_value());
}

TEST(EpcPaging, TinyEpcStillRunsLargeEnclaveWorkingSet) {
  // A 2-page EPC backing a 50-page working set: thrashing, but correct.
  Epc epc(mee_key(), /*capacity_pages=*/2);
  for (uint64_t v = 0; v < 50; ++v) {
    crypto::Bytes content;
    crypto::append_u64(content, v * 31);
    epc.add_page(7, v, content);
  }
  for (int round = 0; round < 3; ++round) {
    for (uint64_t v = 0; v < 50; v += 7) {
      EXPECT_EQ(crypto::read_u64(epc.read_page(7, v), 0), v * 31);
    }
  }
  EXPECT_LE(epc.pages_in_use(), 2u);
}

}  // namespace
}  // namespace tenet::sgx
