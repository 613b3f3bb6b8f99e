// The one open-addressing hash table of the code base.
//
// The EPC page table (sgx/epc.h), the simulator's per-link and per-node
// state (netsim/sim.h, netsim/fault.h) and the session index
// (netsim/session_cache.h) sit on the per-event and per-page hot paths.
// std::map kept them behind an allocation per entry and an O(log n)
// pointer chase per lookup (DESIGN.md §12). FlatMap packs entries into one
// contiguous slot array with linear probing on a power-of-two size, at
// most three quarters full: O(1) expected find and insert, no per-entry
// allocation. It is header-only and lives beside bytes.h because every
// library links tenet_crypto, so sgx and netsim share it with no new link
// edge.
//
// for_each visits entries in hash-layout order. No caller lets that order
// reach an output (the EPC feeds a min-heap over unique keys and counts;
// the simulator never iterates), so determinism does not depend on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tenet::crypto {

/// splitmix64 finalizer: a full-avalanche mix of a 64-bit key.
struct U64Hash {
  [[nodiscard]] size_t operator()(uint64_t x) const {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

/// Open-addressing map from Key to T: find, insert-or-default, retain and
/// for_each. There is no single-key erase; retain drops entries in bulk
/// and compacts the table, so probe runs never hold tombstones.
template <typename Key, typename T, typename Hash = U64Hash>
class FlatMap {
  struct Slot {
    Key key{};
    // `used` may sit in the value's tail padding, so an EPC page's slot
    // stays one 64-byte line.
    [[no_unique_address]] T value{};
    bool used = false;
  };

 public:
  /// insert()'s result: the entry's value, and whether it was just made.
  struct Inserted {
    T& value;
    bool inserted;
  };

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T* find(const Key& key) {
    if (slots_.empty()) return nullptr;
    Slot& s = slots_[probe(key)];
    return s.used ? &s.value : nullptr;
  }
  [[nodiscard]] const T* find(const Key& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// The entry for `key`, default-constructing it on first use. A new
  /// entry may move every other one (a rehash), so pointers and references
  /// into the table are valid only until the next insert.
  Inserted insert(const Key& key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(capacity_for(size_ + 1));
    }
    Slot& s = slots_[probe(key)];
    if (s.used) return {s.value, false};
    s.key = key;
    s.used = true;
    ++size_;
    return {s.value, true};
  }

  /// Drops every entry for which keep(key, value) is false, calling keep
  /// once per entry, then compacts the table to fit the survivors. The
  /// simulator sweeps expired link horizons with it, so the table tracks
  /// only busy links; EREMOVE drops an enclave's pages with it.
  template <typename Keep>
  void retain(Keep&& keep) {
    size_t survivors = 0;
    for (Slot& s : slots_) {
      if (!s.used) continue;
      if (keep(std::as_const(s.key), s.value)) {
        ++survivors;
      } else {
        s.used = false;  // the rehash below frees it
      }
    }
    if (survivors == size_) return;
    size_ = survivors;
    rehash(capacity_for(survivors));
  }

  /// Calls f(key, value) for every entry, in hash-layout order.
  template <typename F>
  void for_each(F&& f) {
    for (Slot& s : slots_) {
      if (s.used) f(std::as_const(s.key), s.value);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.used) f(s.key, s.value);
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  /// The smallest table that holds `n` entries at most three quarters full.
  [[nodiscard]] static size_t capacity_for(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;
    return cap;
  }

  /// The slot holding `key`, or the free slot that ends its probe run.
  [[nodiscard]] size_t probe(const Key& key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (!s.used || s.key == key) return i;
    }
  }

  void rehash(size_t cap) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cap));
    for (Slot& s : old) {
      if (s.used) slots_[probe(s.key)] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace tenet::crypto
