// Enclave Page Cache emulation.
//
// §2.1: "memory content of the enclave is stored inside Enclave Page Cache
// (EPC), which is protected memory where encrypted enclave pages and SGX
// data structures are stored... the OS cannot see the memory content
// because the EPC region is encrypted by the memory encryption engine
// (MEE) within the CPU."
//
// What the host can see of a page is its MEE ciphertext: AES-CTR under a
// per-platform key with a MAC, bound to the page's vaddr and to a trusted
// per-page version, and an EPCM entry records the owning enclave. Real
// hardware encrypts a line only when it leaves the CPU package, and the
// emulator does the same at page granularity: a resident page is held as
// plaintext and sealed the moment its ciphertext becomes observable (EWB,
// or any adversary_* call). A host-level adversary (sgx/adversary.h) can
// read, corrupt and replay the *ciphertext*. Reads reveal nothing, and a
// corrupted or replayed page fails the MAC or the version check on next
// access, faulting the enclave. MEE work is done by hardware in parallel
// with memory traffic, so it is deliberately NOT charged to the
// instruction-cost model.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "crypto/aead.h"
#include "crypto/bytes.h"
#include "sgx/types.h"

namespace tenet::sgx {

/// EPCM metadata for one EPC page (§2.1: "the processor maintains enclave
/// page cache map (EPCM) to keep meta-data associated with each EPC page").
struct EpcmEntry {
  bool valid = false;
  EnclaveId owner = 0;
  uint64_t vaddr = 0;  // page index within the enclave's address space
  bool writable = true;
};

class Epc {
 public:
  /// `capacity_pages`: EPC size (real 2015 hardware reserved ~128 MB; the
  /// default keeps the same order of magnitude at page granularity).
  Epc(crypto::BytesView mee_key, size_t capacity_pages = 32 * 1024);

  /// Adds a page for `owner` at enclave-virtual page `vaddr` under a fresh
  /// version. Throws HardwareFault when the EPC is full and nothing can be
  /// evicted, or when the slot is already mapped.
  void add_page(EnclaveId owner, uint64_t vaddr, crypto::BytesView plaintext);

  /// Reads a page back through the MEE. Throws HardwareFault if the caller
  /// is not the owner ("only the enclave that is associated with the EPC
  /// page can access it") or if integrity verification fails.
  /// (Non-const: a spilled page is transparently reloaded — ELDU.)
  [[nodiscard]] crypto::Bytes read_page(EnclaveId owner, uint64_t vaddr);

  /// Rewrites a page (data/heap stores) under a fresh version.
  void write_page(EnclaveId owner, uint64_t vaddr, crypto::BytesView plaintext);

  /// Entry-time integrity check (EENTER): verifies the MAC and version of
  /// every resident page of `owner` whose ciphertext the adversary wrote
  /// since the MEE last produced it, and throws HardwareFault on the first
  /// that fails. A page that fails stays suspect, so every later entry
  /// faults again; one that verifies clean (e.g. flipped back) is dropped.
  /// No other resident page can fail: only adversary_corrupt and
  /// adversary_replace_resident write ciphertext the MEE did not produce.
  /// Spilled pages are checked at reload (ELDU) instead.
  void verify_owner_pages(EnclaveId owner);

  /// Frees all pages of an enclave (EREMOVE path).
  void remove_enclave(EnclaveId owner);

  [[nodiscard]] size_t pages_in_use() const { return pages_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t pages_of(EnclaveId owner) const;

  // --- Paging (EWB / ELDU) ---
  //
  // The EPC is small (real 2015 parts reserved ~128 MB), so the OS pages
  // enclave memory to ordinary RAM: EWB seals the page under a fresh
  // version recorded in an in-EPC Version Array slot; ELDU reloads it and
  // checks the version, so a privileged attacker replaying an *old*
  // encrypted copy (a rollback) is caught by hardware. add_page evicts
  // automatically under pressure, and read/write reload transparently.

  /// Explicitly evicts a resident page to the untrusted spill store.
  /// Throws HardwareFault if the page is not resident.
  void evict_page(EnclaveId owner, uint64_t vaddr);

  [[nodiscard]] bool resident(EnclaveId owner, uint64_t vaddr) const;
  [[nodiscard]] uint64_t evictions() const { return evictions_; }
  [[nodiscard]] uint64_t reloads() const { return reloads_; }

  /// Privileged-software rollback attack: replaces the current spilled
  /// copy of a page with an earlier snapshot (captured at call time of
  /// adversary_snapshot_spill). Detection happens at reload.
  [[nodiscard]] std::optional<crypto::Bytes> adversary_snapshot_spill(
      EnclaveId owner, uint64_t vaddr) const;
  bool adversary_replace_spill(EnclaveId owner, uint64_t vaddr,
                               crypto::Bytes old_snapshot);

  // --- Adversary surface (privileged software / physical attacker) ---

  /// Ciphertext of a page as the OS/DMA attacker sees it; nullopt if the
  /// slot is unmapped. Never decrypts.
  [[nodiscard]] std::optional<crypto::Bytes> adversary_read_ciphertext(
      EnclaveId owner, uint64_t vaddr) const;

  /// Flips bits in the stored ciphertext (a physical / privileged-software
  /// write). The MEE MAC will catch this on next legitimate access; a
  /// resident page becomes suspect for verify_owner_pages. Returns false
  /// if the slot is unmapped.
  bool adversary_corrupt(EnclaveId owner, uint64_t vaddr, size_t byte_offset);

  /// Resident-page replay: writes host-chosen bytes (typically an older
  /// adversary_read_ciphertext of the same page) over a resident page's
  /// ciphertext and marks it suspect. The version check faults it at the
  /// next entry and read, until the enclave is removed or the page is
  /// rewritten. Returns false if the page is not resident.
  bool adversary_replace_resident(EnclaveId owner, uint64_t vaddr,
                                  crypto::Bytes old_ciphertext);

 private:
  // Deferred sealing. Sealing every page through the software MEE on every
  // add, write and reload dominated simulator wall-clock while modeling
  // nothing: MEE work is hardware and excluded from the instruction meter.
  // So a resident page stays plaintext (or, when all-zero, holds nothing)
  // until its ciphertext can be observed: EWB seals the spill from the
  // plaintext, and an adversary read/corrupt/replace or a spill
  // snapshot/replace seals first. From then on the ciphertext is the
  // authoritative copy, and reads open it and check MAC and version.
  // sgx.epc.mee_seals / mee_opens count the MEE operations eager sealing
  // would do: one seal per add_page, one open + one seal per EWB and per
  // ELDU. write_page and read_page are not counted, and the seals and
  // opens deferral does on observation are not either.
  enum class PageState : uint8_t { kZero, kPlain, kSealed };
  struct Slot {
    EpcmEntry epcm;
    // Trusted (in-EPC) version, fresh on every add, write and reload and
    // never writable by the adversary. The seal binds it as the AEAD
    // sequence number, so no two contents of a page share a keystream and
    // a replayed older ciphertext fails the version check.
    uint64_t version = 0;
    // Exactly one representation at a time: nothing (kZero), the padded
    // plaintext (kPlain) or the sealed page with its MAC (kSealed).
    mutable PageState state = PageState::kZero;
    mutable crypto::Bytes bytes;
  };
  struct SpilledPage {
    mutable crypto::Bytes ciphertext;  // sealed under the MEE key + version
    uint64_t version = 0;      // must match the in-EPC VA slot on reload
    mutable bool zero = false;  // all-zero page, seal deferred
  };

  /// Installs `page` (padded to kPageSize) as `slot`'s plaintext under a
  /// fresh version; an all-zero page is kept as kZero.
  void store(Slot& slot, crypto::Bytes page);
  /// The plaintext of a resident page, or nullopt when its ciphertext
  /// fails the MAC or carries another version.
  [[nodiscard]] std::optional<crypto::Bytes> open_page(const Slot& slot,
                                                       uint64_t vaddr) const;
  /// Seals a deferred page so its ciphertext becomes observable.
  void materialize(const Slot& slot, EnclaveId owner, uint64_t vaddr) const;
  void materialize_spill(const SpilledPage& spilled, EnclaveId owner,
                         uint64_t vaddr) const;

  /// Reloads a spilled page into the EPC (ELDU); throws HardwareFault on
  /// MAC failure or version (rollback) mismatch.
  void reload_page(EnclaveId owner, uint64_t vaddr);
  /// Evicts some resident page to make room (the "OS" picks a victim that
  /// is not `keep_owner`/`keep_vaddr`).
  void make_room(EnclaveId keep_owner, uint64_t keep_vaddr);
  /// The page's resident slot, paging it in first when it is spilled;
  /// nullptr when it is neither. One lookup when the page is resident.
  [[nodiscard]] Slot* find_page(EnclaveId owner, uint64_t vaddr);

  // (owner, vaddr). Every container below orders by owner first, so an
  // operation on one enclave walks only that enclave's key range, never
  // another enclave's pages.
  using PageKey = std::pair<EnclaveId, uint64_t>;

  crypto::Aead mee_;
  size_t capacity_;
  std::map<PageKey, Slot> pages_;
  // Untrusted spill store (ordinary RAM) + trusted version array (in-EPC
  // metadata, not visible to the adversary surface).
  std::map<PageKey, SpilledPage> spill_;
  std::map<PageKey, uint64_t> version_array_;
  // Resident pages whose ciphertext adversary_corrupt or
  // adversary_replace_resident wrote and no rewrite or clean verification
  // has covered since. Always a subset of pages_' keys: evicting,
  // rewriting or removing a page clears its entry, and a spilled page is
  // never suspect, so a reload has none to clear.
  std::set<PageKey> suspect_;
  uint64_t next_version_ = 1;
  uint64_t evictions_ = 0;
  uint64_t reloads_ = 0;
};

}  // namespace tenet::sgx
