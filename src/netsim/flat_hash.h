// Flat open-addressing hash map keyed by uint64_t, plus the normalized
// link-key helpers shared by the Simulator and the FaultPlan.
//
// Per-link attributes (latency, cut, loss, fault knobs, FIFO horizons) sit
// on the per-event hot path. std::map kept them behind an allocation per
// entry and an O(log n) pointer chase per lookup; at internet scale that
// dominated event dispatch (DESIGN.md §12). U64Map packs entries into one
// contiguous slot array with linear probing: O(1) expected find/insert,
// no per-entry allocation, and no iteration-order dependence anywhere (the
// engine never iterates it), so determinism is unaffected by hash layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tenet::netsim {

using NodeId = uint32_t;

/// Packs a directed node pair into one 64-bit key (src in the high half).
[[nodiscard]] constexpr uint64_t directed_link_key(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Normalized (min,max) key: both directions of a link map to one key.
/// The single place ordered-pair normalization happens — latency() and
/// the fault plan share it, so a link's attributes are looked up once per
/// event instead of re-normalizing in every accessor.
[[nodiscard]] constexpr uint64_t link_key(NodeId a, NodeId b) {
  return a < b ? directed_link_key(a, b) : directed_link_key(b, a);
}

/// Open-addressing hash map from uint64_t keys to T. Supports find and
/// insert-or-default (no erase — the simulator's link state only grows,
/// and "unset" values like a healed link's empty LinkFaults are stored,
/// not removed).
template <typename T>
class U64Map {
 public:
  U64Map() = default;

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 7 < n * 10) cap <<= 1;  // keep load factor under 70%
    if (cap > slots_.size()) rehash(cap);
  }

  [[nodiscard]] T* find(uint64_t key) {
    if (slots_.empty()) return nullptr;
    for (size_t i = hash(key) & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  [[nodiscard]] const T* find(uint64_t key) const {
    return const_cast<U64Map*>(this)->find(key);
  }

  /// Returns the value for `key`, default-constructing it on first use.
  T& operator[](uint64_t key) {
    if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    for (size_t i = hash(key) & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;
        ++size_;
        return s.value;
      }
      if (s.key == key) return s.value;
    }
  }

  /// Drops every entry whose value fails `keep` and compacts the table to
  /// fit the survivors. Used to sweep expired per-link FIFO horizons: on
  /// large topologies the directed-link key space is effectively
  /// unbounded, and without expiry every probe degrades into a cache miss
  /// in an ever-growing table.
  template <typename Keep>
  void retain(Keep&& keep) {
    if (size_ == 0) return;
    std::vector<Slot> old = std::move(slots_);
    size_t survivors = 0;
    for (const Slot& s : old) {
      if (s.used && keep(s.value)) ++survivors;
    }
    size_t cap = kMinCapacity;
    while (cap * 7 < survivors * 10) cap <<= 1;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (!s.used || !keep(s.value)) continue;
      size_t i = hash(s.key) & mask_;
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i].used = true;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      ++size_;
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    uint64_t key = 0;
    T value{};
    bool used = false;
  };

  /// splitmix64 finalizer: full-avalanche mix of the packed pair.
  [[nodiscard]] static size_t hash(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }

  void rehash(size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (Slot& s : old) {
      if (!s.used) continue;
      size_t i = hash(s.key) & mask_;
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i].used = true;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace tenet::netsim
