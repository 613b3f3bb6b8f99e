// Enclave Page Cache emulation.
//
// §2.1: "memory content of the enclave is stored inside Enclave Page Cache
// (EPC), which is protected memory where encrypted enclave pages and SGX
// data structures are stored... the OS cannot see the memory content
// because the EPC region is encrypted by the memory encryption engine
// (MEE) within the CPU."
//
// We model that literally: pages are stored AES-CTR-encrypted under a
// per-platform MEE key with a per-page MAC, and an EPCM entry records the
// owning enclave. A host-level adversary (sgx/adversary.h) can read and
// corrupt the *ciphertext* — reads reveal nothing, and corruption is
// caught by the MAC on next access, faulting the enclave. MEE work is done
// by hardware in parallel with memory traffic, so it is deliberately NOT
// charged to the instruction-cost model.
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

  /// Adds a page for `owner` at enclave-virtual page `vaddr`; encrypts and
  /// MACs the plaintext. Throws HardwareFault when the EPC is full or the
  /// slot is already mapped.
  void add_page(EnclaveId owner, uint64_t vaddr, crypto::BytesView plaintext);

  /// Reads a page back through the MEE. Throws HardwareFault if the caller
  /// is not the owner ("only the enclave that is associated with the EPC
  /// page can access it") or if integrity verification fails.
  /// (Non-const: a spilled page is transparently reloaded — ELDU.)
  [[nodiscard]] crypto::Bytes read_page(EnclaveId owner, uint64_t vaddr);

  /// Rewrites a page (data/heap stores).
  void write_page(EnclaveId owner, uint64_t vaddr, crypto::BytesView plaintext);

  /// Entry-time integrity check (EENTER): verifies the MAC of every
  /// resident page of `owner` that the adversary corrupted since the MEE
  /// last sealed it, and throws HardwareFault on the first that fails. A
  /// page that fails stays suspect, so every later entry faults again; one
  /// that verifies clean (e.g. flipped back) is dropped. No other resident
  /// page can fail: only adversary_corrupt writes ciphertext the MEE did
  /// not seal. Spilled pages are checked at reload (ELDU) instead.
  void verify_owner_pages(EnclaveId owner);

  /// Frees all pages of an enclave (EREMOVE path).
  void remove_enclave(EnclaveId owner);

  [[nodiscard]] size_t pages_in_use() const { return pages_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t pages_of(EnclaveId owner) const;

  // --- Paging (EWB / ELDU) ---
  //
  // The EPC is small (real 2015 parts reserved ~128 MB), so the OS pages
  // enclave memory to ordinary RAM: EWB re-encrypts the page with a fresh
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

 private:
  // Zero-page shortcut: EAUG'd heap pages are all-zero, and workloads that
  // model big transient allocations add (and evict) hundreds of thousands
  // of them. Sealing each one through the software MEE dominated simulator
  // wall-clock while modeling nothing — MEE work is hardware and excluded
  // from the instruction meter anyway. A page known to be zero carries a
  // flag instead of ciphertext and is materialized (sealed for real) the
  // moment anything can observe the ciphertext: an adversary read/corrupt,
  // or a spill snapshot/replace. Modeled counters (mee_seals, ewb, eldu)
  // are charged exactly as before.
  struct Slot {
    EpcmEntry epcm;
    mutable crypto::Bytes ciphertext;  // sealed page (includes MAC)
    mutable bool zero = false;         // all-zero page, seal deferred
  };
  struct SpilledPage {
    mutable crypto::Bytes ciphertext;  // sealed under the MEE key + version
    uint64_t version = 0;      // must match the in-EPC VA slot on reload
    mutable bool zero = false;
  };

  /// Seals a deferred zero page so its ciphertext becomes observable.
  void materialize(const Slot& slot, EnclaveId owner, uint64_t vaddr) const;
  void materialize_spill(const SpilledPage& spilled, EnclaveId owner,
                         uint64_t vaddr) const;

  /// Reloads a spilled page into the EPC (ELDU); throws HardwareFault on
  /// MAC failure or version (rollback) mismatch.
  void reload_page(EnclaveId owner, uint64_t vaddr);
  /// Evicts some resident page to make room (the "OS" picks a victim that
  /// is not `keep_owner`/`keep_vaddr`).
  void make_room(EnclaveId keep_owner, uint64_t keep_vaddr);
  [[nodiscard]] const Slot& slot_for_read(EnclaveId owner,
                                          uint64_t vaddr) const;

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
  // Resident pages whose ciphertext adversary_corrupt wrote and no MEE
  // seal or clean verification has covered since. Always a subset of
  // pages_' keys: evicting, reloading, rewriting or removing a page
  // clears its entry.
  std::set<PageKey> suspect_;
  uint64_t next_version_ = 1;
  uint64_t evictions_ = 0;
  uint64_t reloads_ = 0;
};

}  // namespace tenet::sgx
