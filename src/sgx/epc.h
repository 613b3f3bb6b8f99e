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
// per-page version. A host-level adversary (sgx/adversary.h) can read,
// corrupt and replay the *ciphertext*. Reads reveal nothing, and a
// corrupted or replayed page fails the MAC or the version check on next
// access, faulting the enclave. Real hardware encrypts a line only when it
// leaves the CPU package; the emulator goes one step further and seals a
// page, resident or spilled, only when the host looks at it (an
// adversary_* call), so a page no one observes costs no MEE work at all.
// MEE work is done by hardware in parallel with memory traffic, so it is
// deliberately NOT charged to the instruction-cost model.
#pragma once

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "crypto/aead.h"
#include "crypto/bytes.h"
#include "crypto/flat_map.h"
#include "sgx/types.h"

namespace tenet::sgx {

class Epc {
 public:
  /// `capacity_pages`: EPC size (real 2015 hardware reserved ~128 MB; the
  /// default keeps the same order of magnitude at page granularity).
  Epc(crypto::BytesView mee_key, size_t capacity_pages = 32 * 1024);

  /// Adds a page for `owner` at enclave-virtual page `vaddr` under a fresh
  /// version. Throws HardwareFault when the EPC is full and nothing can be
  /// evicted, or when the slot is already mapped.
  void add_page(EnclaveId owner, uint64_t vaddr, crypto::BytesView plaintext);

  /// Reads a page back through the MEE. Throws HardwareFault if `owner`
  /// has no page at `vaddr` (pages are keyed by owner, so another
  /// enclave's page is never found: "only the enclave that is associated
  /// with the EPC page can access it") or if integrity verification fails.
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

  [[nodiscard]] size_t pages_in_use() const { return resident_; }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t pages_of(EnclaveId owner) const;

  // --- Paging (EWB / ELDU) ---
  //
  // The EPC is small (real 2015 parts reserved ~128 MB), so the OS pages
  // enclave memory to ordinary RAM: EWB spills the page under a fresh
  // version recorded in an in-EPC Version Array slot; ELDU reloads it and
  // checks the version, so a privileged attacker replaying an *old*
  // encrypted copy (a rollback) is caught by hardware. add_page evicts
  // automatically under pressure (the OS's victim is the lowest resident
  // (owner, vaddr)), and read/write reload transparently.

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
  // add, write, EWB and ELDU dominated simulator wall-clock while modeling
  // nothing: MEE work is hardware and excluded from the instruction meter.
  // So a page, resident or spilled, stays plaintext (or, when all-zero,
  // holds nothing) until its ciphertext can be observed: an adversary
  // read/corrupt/replace or a spill snapshot/replace seals it first
  // (materialize). From then on the ciphertext is the authoritative copy,
  // and an access opens it and checks MAC and version. A resident page is
  // sealed under (owner, version); a spilled one under
  // (owner ^ 0x5350494C, spill version), as an eager EWB would seal it, so
  // every observed ciphertext is byte-identical to eager sealing.
  // sgx.epc.mee_seals / mee_opens count the MEE operations eager sealing
  // would do: one seal per add_page, one open + one seal per EWB and per
  // ELDU. write_page and read_page are not counted, and the seals and
  // opens deferral does on observation are not either.
  enum class PageState : uint8_t { kZero, kPlain, kSealed };

  // One mapped page, keyed in table_ by its EPCM identity (owner, vaddr):
  // where it lives and its versions. EWB and ELDU flip `resident` in place;
  // nothing moves. The flags come last, so the table slot's `used` fits in
  // the tail padding.
  struct Page {
    // Trusted (in-EPC) version, never writable by the adversary: a
    // resident page's version, fresh on every add, write and reload, or a
    // spilled page's Version Array slot, fresh on every EWB. The seal binds
    // it as the AEAD sequence number, so no two contents of a page share a
    // keystream and a replayed older ciphertext fails the version check.
    uint64_t version = 0;
    // The version the spill record in untrusted RAM carries; ELDU checks it
    // against `version`. Only adversary_replace_spill makes them differ.
    uint64_t spill_version = 0;
    mutable crypto::Bytes bytes;
    bool resident = false;
    bool in_heap = false;  // its key is in victims_
    // Exactly one representation at a time: nothing (kZero), the padded
    // plaintext (kPlain) or the sealed page with its MAC (kSealed).
    mutable PageState state = PageState::kZero;
  };
  using PageKey = std::pair<EnclaveId, uint64_t>;
  /// Fibonacci hashing: the multiply spreads consecutive vaddrs across the
  /// table, and the fold brings the product's best-mixed top bits down.
  struct PageKeyHash {
    [[nodiscard]] size_t operator()(const PageKey& key) const {
      const uint64_t h = (key.second ^ (key.first * 0x9E3779B97F4A7C15ull)) *
                         0xD6E8FEB86659FD93ull;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  /// Installs `plain` (padded to kPageSize) as a page's plaintext under
  /// `version`; an all-zero page is kept as kZero.
  static void store(Page& page, crypto::Bytes plain, uint64_t version);
  /// The plaintext of the resident page at `vaddr`, or nullopt when its
  /// ciphertext fails the MAC or carries another version.
  [[nodiscard]] std::optional<crypto::Bytes> open_page(uint64_t vaddr,
                                                       const Page& page) const;
  /// Seals a deferred page so its ciphertext becomes observable.
  void materialize(const PageKey& key, const Page& page) const;

  /// Reloads a spilled page into the EPC (ELDU); throws HardwareFault on
  /// MAC failure or version (rollback) mismatch, or when no room can be
  /// made, and the page stays spilled.
  void reload_page(const PageKey& key, Page& page);
  /// Queues a resident page's key as a victim, once victims_ is kept.
  void push_victim(const PageKey& key, Page& page);
  /// Refills victims_ with the key of every resident page.
  void rebuild_victims();
  /// Evicts the lowest resident (owner, vaddr) to make room for a page of
  /// `requester`. The page being installed is never resident, so it is
  /// never the victim. Moves no page.
  void make_room(EnclaveId requester);
  /// The page, paged in first when it is spilled; nullptr when unmapped.
  [[nodiscard]] Page* find_page(EnclaveId owner, uint64_t vaddr);

  crypto::Aead mee_;
  size_t capacity_;
  // Every mapped page, resident or spilled, in the one open-addressing
  // table (crypto/flat_map.h). A page's spill lives in its own entry: the
  // bytes are untrusted RAM's copy and `version` is the trusted Version
  // Array slot, which the adversary surface never reads. Only add_page
  // inserts, so a Page reference stays valid across an eviction.
  crypto::FlatMap<PageKey, Page, PageKeyHash> table_;
  size_t resident_ = 0;
  // Min-heap of the keys of resident pages, for the victim choice. It is
  // kept from the first make_room on (paging_), so an EPC that never fills
  // holds none. A key stays after its page is evicted and is dropped when
  // it reaches the top; each key is in it at most once (Page::in_heap),
  // and remove_enclave rebuilds it, so it never outgrows the table.
  std::vector<PageKey> victims_;
  bool paging_ = false;
  // Resident pages whose ciphertext adversary_corrupt or
  // adversary_replace_resident wrote and no rewrite or clean verification
  // has covered since. Ordered by owner first, so verify_owner_pages walks
  // only that enclave's range. Evicting, rewriting or removing a page
  // clears its entry, and a spilled page is never suspect, so a reload has
  // none to clear.
  std::set<PageKey> suspect_;
  uint64_t next_version_ = 1;
  uint64_t evictions_ = 0;
  uint64_t reloads_ = 0;
};

}  // namespace tenet::sgx
