// Per-peer secure-session cache for the million-session data plane.
//
// A live SecureChannel carries an expanded AES key schedule plus HMAC
// midstates — a few hundred bytes of derived state per peer that is cheap
// to rebuild but too expensive to rebuild per record. At 10^6 sessions
// keeping every channel materialized wastes memory (and, inside an enclave,
// EPC pages); rebuilding on every record wastes key schedules.
//
// The cache is two tiers:
//   * a compact per-peer record (32-byte key + sequence snapshot) in a flat
//     open-addressing index (crypto/flat_map.h) — unbounded, ~64 bytes
//     per session, O(1) install/lookup at any session count;
//   * a bounded hot tier of materialized SecureChannels, clock-evicted.
//     Eviction writes the sequence snapshot back to the compact record, so
//     a later resume re-derives a channel that seals byte-identically to
//     one that never left the hot set.
//
// Everything is deterministic: no RNG, no wall clock — the clock hand
// advances only on materialization, so a replayed run touches the same
// peers in the same order and gets the same hits/misses/evictions.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/flat_map.h"
#include "netsim/secure_channel.h"

namespace tenet::netsim {

class SessionCache {
 public:
  struct Stats {
    uint64_t installs = 0;    ///< new sessions + rekeys
    uint64_t hot_hits = 0;    ///< find() served from a live channel
    uint64_t resumes = 0;     ///< find() re-materialized a cold session
    uint64_t evictions = 0;   ///< hot-tier channels demoted (state written back)
  };

  /// `hot_capacity` bounds the number of materialized channels (≥ 1).
  explicit SessionCache(size_t hot_capacity = 1024);

  /// Installs (or re-keys) the session for `peer`: stores the key material
  /// and resets both sequence numbers. O(1) regardless of session count.
  void install(uint64_t peer, crypto::BytesView key, bool initiator);

  /// Returns the live channel for `peer`, materializing it from the compact
  /// record if needed (possibly evicting the coldest hot entry). Returns
  /// nullptr for peers never installed. The pointer is invalidated by the
  /// next find()/install() on a different peer.
  [[nodiscard]] SecureChannel* find(uint64_t peer);

  [[nodiscard]] bool contains(uint64_t peer) const {
    return index_.find(peer) != nullptr;
  }

  /// Test hook: demote `peer` from the hot tier (no-op if not hot),
  /// exercising the write-back + resume path deterministically.
  void evict(uint64_t peer);

  [[nodiscard]] size_t size() const { return sessions_.size(); }
  [[nodiscard]] size_t hot_size() const { return hot_live_; }
  [[nodiscard]] size_t hot_capacity() const { return hot_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kNotHot = UINT32_MAX;

  /// Compact cold-tier record: everything needed to rebuild the channel.
  struct Session {
    std::array<uint8_t, SecureChannel::kKeySize> key{};
    SecureChannel::Resume resume;
    bool initiator = false;
    uint32_t hot_slot = kNotHot;
  };

  struct HotEntry {
    uint32_t session = UINT32_MAX;  ///< index into sessions_, UINT32_MAX = free
    bool referenced = false;        ///< clock bit
    std::optional<SecureChannel> channel;
  };

  /// Writes the hot entry's sequence state back to its session record and
  /// frees the slot.
  void demote(uint32_t slot);
  /// Clock sweep: returns a free hot slot, evicting if necessary.
  uint32_t claim_slot();

  /// peer -> index into sessions_, in 16-byte slots.
  crypto::FlatMap<uint64_t, uint32_t> index_;
  std::vector<Session> sessions_;   ///< compact cold tier (grows, never shrinks)
  std::vector<HotEntry> hot_;       ///< fixed-capacity hot tier
  size_t hot_live_ = 0;
  size_t hand_ = 0;                 ///< clock hand over hot_
  Stats stats_;
};

}  // namespace tenet::netsim
