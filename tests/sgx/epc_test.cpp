#include "sgx/epc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

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

TEST(Epc, RewriteNeverReusesTheKeystream) {
  // Two ciphertexts of one page under the same keystream XOR to the XOR
  // of their plaintexts, so an attacker who knows the second content
  // recovers the first. Each write must seal under a fresh version.
  Epc epc(mee_key());
  const crypto::Bytes secret = crypto::to_bytes("session key 0123456789abcdef");
  const crypto::Bytes known(secret.size(), 'A');
  epc.add_page(1, 0, secret);
  const crypto::Bytes first = *epc.adversary_read_ciphertext(1, 0);
  epc.write_page(1, 0, known);
  const crypto::Bytes second = *epc.adversary_read_ciphertext(1, 0);

  crypto::Bytes recovered(secret.size());
  for (size_t i = 0; i < secret.size(); ++i) {
    const size_t at = crypto::Aead::kHeaderSize + i;
    recovered[i] = first[at] ^ second[at] ^ known[i];
  }
  EXPECT_NE(recovered, secret);
  EXPECT_NE(crypto::Aead::record_seq(first), crypto::Aead::record_seq(second));
}

TEST(Epc, ReplayedResidentCiphertextFaultsUntilRemoved) {
  // The resident analogue of a spill rollback: the host records a page's
  // ciphertext, lets the enclave rewrite the page, then writes the old
  // ciphertext back. Its MAC is genuine, but its version is not the page's.
  Epc epc(mee_key());
  epc.add_page(1, 0, crypto::to_bytes("balance=100"));
  const crypto::Bytes stale = *epc.adversary_read_ciphertext(1, 0);
  epc.write_page(1, 0, crypto::to_bytes("balance=0"));
  ASSERT_TRUE(epc.adversary_replace_resident(1, 0, stale));
  for (int entry = 0; entry < 3; ++entry) {
    EXPECT_THROW(epc.verify_owner_pages(1), HardwareFault) << entry;
    EXPECT_THROW((void)epc.read_page(1, 0), HardwareFault) << entry;
  }
  EXPECT_THROW(epc.evict_page(1, 0), HardwareFault);

  epc.remove_enclave(1);
  EXPECT_FALSE(epc.adversary_replace_resident(1, 0, stale));
  epc.add_page(1, 0, crypto::to_bytes("balance=100"));
  EXPECT_NO_THROW(epc.verify_owner_pages(1));
}

TEST(Epc, ReplacingWithTheCurrentCiphertextVerifiesClean) {
  Epc epc(mee_key());
  epc.add_page(1, 0, crypto::to_bytes("unchanged"));
  const crypto::Bytes current = *epc.adversary_read_ciphertext(1, 0);
  ASSERT_TRUE(epc.adversary_replace_resident(1, 0, current));
  EXPECT_NO_THROW(epc.verify_owner_pages(1));
  const crypto::Bytes page = epc.read_page(1, 0);
  EXPECT_TRUE(std::equal(page.begin(), page.begin() + 9,
                         crypto::to_bytes("unchanged").begin()));
}

TEST(Epc, ReplaceResidentNeedsAResidentPage) {
  Epc epc(mee_key());
  EXPECT_FALSE(epc.adversary_replace_resident(1, 0, crypto::Bytes(64, 1)));
  epc.add_page(1, 0, crypto::to_bytes("spilled"));
  const crypto::Bytes ct = *epc.adversary_read_ciphertext(1, 0);
  epc.evict_page(1, 0);
  EXPECT_FALSE(epc.adversary_replace_resident(1, 0, ct));
  EXPECT_NO_THROW((void)epc.read_page(1, 0));
}

TEST(Epc, CorruptingAnEmptyReplacementIsHarmless) {
  // A replace may leave no ciphertext at all; a later bit flip must not
  // divide by its length.
  Epc epc(mee_key());
  epc.add_page(1, 0, crypto::to_bytes("page"));
  ASSERT_TRUE(epc.adversary_replace_resident(1, 0, {}));
  EXPECT_TRUE(epc.adversary_corrupt(1, 0, 5));
  EXPECT_THROW(epc.verify_owner_pages(1), HardwareFault);
}

// Differential property test against two oracles, over random
// interleavings on three owners and a 6-page EPC, so pages are evicted,
// reloaded and observed throughout:
//  - the entry check (verify_owner_pages, which opens only the pages the
//    adversary wrote) faults exactly when a check of every resident page
//    would, i.e. when read_page faults on one of the owner's resident
//    pages;
//  - a plaintext reference model: an untampered resident page reads back
//    the bytes last written to it, and no two ciphertexts the adversary
//    observes of one page with different contents share a version (AEAD
//    sequence number), so no keystream is ever reused.
TEST(Epc, EntryCheckMatchesFullResidentSweep) {
  constexpr EnclaveId kOwners = 3;
  constexpr uint64_t kVaddrs = 5;
  constexpr std::array<size_t, 3> kOffsets{0, 100, 4000};
  using Key = std::pair<EnclaveId, uint64_t>;
  crypto::Drbg rng = crypto::Drbg::from_label(test::seed(2015), "epc.suspect");
  Epc epc(mee_key(), /*capacity_pages=*/6);
  std::map<Key, crypto::Bytes> snapshots;

  // The reference model: what each mapped page holds, and whether the
  // adversary wrote to it since the enclave last did.
  struct Page {
    crypto::Bytes content;
    bool tampered = false;
  };
  std::map<Key, Page> model;
  const auto written = [](crypto::BytesView bytes) {
    crypto::Bytes page(bytes.begin(), bytes.end());
    page.resize(kPageSize, 0);
    return Page{std::move(page), false};
  };
  // Every untampered observation of a page: its content and version.
  std::map<Key, std::vector<std::pair<crypto::Bytes, uint64_t>>> seen;
  // The last few ciphertexts observed of each page, for replays.
  std::map<Key, std::vector<crypto::Bytes>> replayable;
  size_t observations = 0;
  const auto observe = [&](const Key& key, crypto::BytesView record) {
    auto& past = replayable[key];
    if (past.size() == 4) past.erase(past.begin());
    past.emplace_back(record.begin(), record.end());
    const auto it = model.find(key);
    if (it == model.end() || it->second.tampered) return;
    const uint64_t version = crypto::Aead::record_seq(record);
    for (const auto& [content, seq] : seen[key]) {
      if (content != it->second.content) {
        ASSERT_NE(seq, version) << "keystream reused by page (" << key.first
                                << ", " << key.second << ")";
      }
    }
    seen[key].emplace_back(it->second.content, version);
    ++observations;
  };

  size_t entry_faults = 0;
  size_t clean_entries = 0;
  size_t checked_reads = 0;
  for (int step = 0; step < 3000; ++step) {
    const EnclaveId o = 1 + rng.uniform(kOwners);
    const uint64_t v = rng.uniform(kVaddrs);
    const Key key{o, v};
    // Each operation may fault (a corrupt victim blocks EWB, a corrupt or
    // rolled-back spill blocks ELDU); the oracles below must hold anyway.
    // The model changes only once an operation has returned.
    try {
      switch (rng.uniform(12)) {
        case 0: {
          const crypto::Bytes content =
              rng.uniform(2) == 0 ? crypto::Bytes()
                                  : rng.bytes(1 + rng.uniform(kPageSize));
          epc.add_page(o, v, content);
          model[key] = written(content);
          break;
        }
        case 1: {
          const crypto::Bytes content = rng.bytes(rng.uniform(64));
          epc.write_page(o, v, content);
          model[key] = written(content);
          break;
        }
        case 2: {
          const crypto::Bytes page = epc.read_page(o, v);  // may reload
          const Page& expected = model.at(key);
          if (!expected.tampered) {
            ASSERT_EQ(page, expected.content) << "step " << step;
            ++checked_reads;
          }
          break;
        }
        case 3:
          epc.evict_page(o, v);
          break;
        case 4:
        case 5:
          if (epc.adversary_corrupt(o, v, kOffsets[rng.uniform(3)])) {
            model.at(key).tampered = true;
          }
          break;
        case 6:
          if (auto snap = epc.adversary_snapshot_spill(o, v)) {
            observe(key, crypto::BytesView(*snap).subspan(8));
            snapshots[key] = std::move(*snap);
          }
          break;
        case 7:
          if (const auto it = snapshots.find(key); it != snapshots.end() &&
              epc.adversary_replace_spill(o, v, it->second)) {
            model.at(key).tampered = true;
          }
          break;
        case 8:
          if (rng.uniform(4) == 0) {
            epc.remove_enclave(o);
            std::erase_if(model, [o](const auto& m) { return m.first.first == o; });
          }
          break;
        case 9:
          if (const auto ct = epc.adversary_read_ciphertext(o, v)) {
            observe(key, *ct);
          }
          break;
        case 10: {
          const auto& past = replayable[key];
          const crypto::Bytes forged =
              past.empty() || rng.uniform(4) == 0
                  ? rng.bytes(rng.uniform(2 * crypto::Aead::kOverhead))
                  : past[rng.uniform(past.size())];
          if (epc.adversary_replace_resident(o, v, forged)) {
            model.at(key).tampered = true;
          }
          break;
        }
        default:
          epc.evict_page(o, rng.uniform(kVaddrs));
          break;
      }
    } catch (const HardwareFault&) {
    }
    if (HasFatalFailure()) return;

    for (EnclaveId owner = 1; owner <= kOwners; ++owner) {
      size_t mapped = 0;
      for (const auto& [k, page] : model) mapped += k.first == owner;
      ASSERT_EQ(epc.pages_of(owner), mapped) << "step " << step;

      bool resident_page_faults = false;
      for (uint64_t vaddr = 0; vaddr < kVaddrs; ++vaddr) {
        if (!epc.resident(owner, vaddr)) continue;
        const Page& expected = model.at({owner, vaddr});
        try {
          const crypto::Bytes page = epc.read_page(owner, vaddr);
          if (!expected.tampered) {
            ASSERT_EQ(page, expected.content)
                << "step " << step << ", page (" << owner << ", " << vaddr
                << ")";
            ++checked_reads;
          }
        } catch (const HardwareFault&) {
          ASSERT_TRUE(expected.tampered)
              << "step " << step << ": untampered page (" << owner << ", "
              << vaddr << ") faulted";
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
  // The interleaving must have exercised both outcomes, the paging path
  // and both oracles.
  EXPECT_GT(entry_faults, 0u);
  EXPECT_GT(clean_entries, 0u);
  EXPECT_GT(epc.evictions(), 0u);
  EXPECT_GT(epc.reloads(), 0u);
  EXPECT_GT(checked_reads, 0u);
  EXPECT_GT(observations, 0u);
}

// Differential test of the paging policy against a reference model that
// holds each page's content and place and evicts, under pressure, the
// lowest resident (owner, vaddr). Random adds, reads, writes, explicit
// evictions, enclave removals and bit flips run over three owners and a
// 4-page EPC. The model predicts whether each step faults, and after every
// step the resident set, pages_of, pages_in_use, evictions(), reloads()
// and every untampered resident page's content must match it. Flips hit
// one offset, so a second flip restores the page: a resident page with an
// odd number of flips faults at read and at EWB (so it cannot be a
// victim), a spilled one at ELDU.
TEST(Epc, PagingMatchesLowestKeyVictimModel) {
  constexpr EnclaveId kOwners = 3;
  constexpr uint64_t kVaddrs = 5;
  constexpr size_t kCapacity = 4;
  using Key = std::pair<EnclaveId, uint64_t>;
  crypto::Drbg rng = crypto::Drbg::from_label(test::seed(2015), "epc.victims");
  Epc epc(mee_key(), kCapacity);

  struct Page {
    crypto::Bytes content;
    bool resident = true;
    bool flipped = false;
  };
  std::map<Key, Page> model;
  uint64_t evictions = 0;
  uint64_t reloads = 0;
  size_t faulting_victims = 0;      // add_page's victim EWB faulted
  size_t faulting_reload_room = 0;  // ELDU's victim EWB faulted
  const auto resident_count = [&] {
    return static_cast<size_t>(
        std::count_if(model.begin(), model.end(),
                      [](const auto& m) { return m.second.resident; }));
  };
  // make_room: false when the victim's EWB faults.
  const auto make_room = [&] {
    if (resident_count() < kCapacity) return true;
    for (auto& [key, page] : model) {
      if (!page.resident) continue;
      if (page.flipped) return false;
      page.resident = false;
      ++evictions;
      return true;
    }
    return false;  // capacity 0 only
  };
  // ELDU of a mapped page: false when it faults.
  const auto page_in = [&](Page& page) {
    if (page.resident) return true;
    if (page.flipped) return false;
    if (!make_room()) {
      ++faulting_reload_room;
      return false;
    }
    page.resident = true;
    ++reloads;
    return true;
  };
  const auto padded = [](crypto::Bytes bytes) {
    bytes.resize(kPageSize, 0);
    return bytes;
  };

  for (int step = 0; step < 4000; ++step) {
    const Key key{1 + rng.uniform(kOwners), rng.uniform(kVaddrs)};
    const auto it = model.find(key);
    const bool mapped = it != model.end();
    bool faults = false;
    bool threw = false;
    try {
      switch (rng.uniform(8)) {
        case 0:
        case 1: {
          const crypto::Bytes content = rng.uniform(3) == 0
                                            ? crypto::Bytes()
                                            : rng.bytes(1 + rng.uniform(64));
          faults = mapped || !make_room();
          if (!mapped && faults) ++faulting_victims;
          if (!faults) model[key] = Page{padded(content)};
          epc.add_page(key.first, key.second, content);
          break;
        }
        case 2: {
          faults = !mapped || !page_in(it->second) || it->second.flipped;
          const crypto::Bytes page = epc.read_page(key.first, key.second);
          ASSERT_FALSE(faults) << "step " << step;
          ASSERT_EQ(page, it->second.content) << "step " << step;
          break;
        }
        case 3: {
          const crypto::Bytes content = rng.bytes(rng.uniform(64));
          faults = !mapped || !page_in(it->second);
          if (!faults) it->second = Page{padded(content)};
          epc.write_page(key.first, key.second, content);
          break;
        }
        case 4:
          faults = !mapped || !it->second.resident || it->second.flipped;
          if (!faults) {
            it->second.resident = false;
            ++evictions;
          }
          epc.evict_page(key.first, key.second);
          break;
        case 5:
          if (rng.uniform(4) == 0) {
            std::erase_if(model, [&](const auto& m) {
              return m.first.first == key.first;
            });
            epc.remove_enclave(key.first);
          }
          break;
        default:
          if (mapped) it->second.flipped = !it->second.flipped;
          ASSERT_EQ(epc.adversary_corrupt(key.first, key.second, 100), mapped);
          break;
      }
    } catch (const HardwareFault&) {
      threw = true;
    }
    if (HasFatalFailure()) return;
    ASSERT_EQ(threw, faults) << "step " << step;

    ASSERT_EQ(epc.evictions(), evictions) << "step " << step;
    ASSERT_EQ(epc.reloads(), reloads) << "step " << step;
    ASSERT_EQ(epc.pages_in_use(), resident_count()) << "step " << step;
    for (EnclaveId owner = 1; owner <= kOwners; ++owner) {
      ASSERT_EQ(epc.pages_of(owner),
                static_cast<size_t>(std::count_if(
                    model.begin(), model.end(),
                    [owner](const auto& m) { return m.first.first == owner; })))
          << "step " << step;
      for (uint64_t vaddr = 0; vaddr < kVaddrs; ++vaddr) {
        const auto m = model.find({owner, vaddr});
        const bool resident = m != model.end() && m->second.resident;
        ASSERT_EQ(epc.resident(owner, vaddr), resident)
            << "step " << step << ", page (" << owner << ", " << vaddr << ")";
        if (resident && !m->second.flipped) {
          ASSERT_EQ(epc.read_page(owner, vaddr), m->second.content)
              << "step " << step << ", page (" << owner << ", " << vaddr << ")";
        }
      }
    }
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(reloads, 0u);
  EXPECT_GT(faulting_victims, 0u);
  EXPECT_GT(faulting_reload_room, 0u);
}

}  // namespace
}  // namespace tenet::sgx
