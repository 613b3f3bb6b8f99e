// Control-plane replication primitives (DESIGN.md §14).
//
// The inter-domain routing controller is the one sharded application:
// N enclave replicas share one logical control plane. (The Tor directory
// authority and the DPI middlebox run as one enclave each, as in the
// paper.) This header holds the generic pieces the replicas use:
//
//  * ShardMap — a consistent-hash partition of application keys (AS
//    numbers) across shard replicas.
//    Each shard projects `kVirtualNodes` points onto a 64-bit ring; a key
//    is owned by the first point clockwise of its hash. Deterministic
//    (splitmix64 mixing, no RNG), so every replica and the untrusted
//    ShardRouter agree on placement without coordination.
//
//  * VersionVector — per-origin-shard monotone counters. An append is
//    applied iff its version is above the local high-water mark for its
//    origin (idempotent apply; the secure channel is FIFO per origin), and
//    a state snapshot our own vector dominates is refused outright — a
//    sealed-then-rolled-back snapshot can never win. Any other snapshot
//    (dominating or incomparable) is merged: entries union in at the app
//    layer and the vector advances by component-wise max, so no component
//    ever moves backwards. Incomparable is the common honest case under
//    ring replication: with factor r < N each replica observes only the
//    r-1 origins preceding it on the ring, so a rejoiner and its donor
//    each hold origin components the other lacks.
//
//  * The shard wire codec — replication messages ride the existing
//    attested SecureChannel (kPortSecure) with a reserved tag byte range
//    0xE0..0xEF, disjoint from every application payload tag, so the
//    SecureApp ingest path can split replication traffic from app traffic
//    after a single byte inspection.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "crypto/bytes.h"
#include "netsim/message.h"

namespace tenet::core {

/// One shard replica: a logical shard id plus the enclave node hosting it.
struct ShardMember {
  uint32_t shard = 0;
  netsim::NodeId node = netsim::kInvalidNode;
};

constexpr uint32_t kInvalidShard = 0xffffffffu;

/// splitmix64 — the deterministic mixer behind ring points and key hashes.
uint64_t shard_mix64(uint64_t x);

/// Consistent-hash shard map. Immutable once built; identical inputs give
/// identical placement on every replica and on the untrusted router.
class ShardMap {
 public:
  static constexpr uint32_t kVirtualNodes = 64;

  ShardMap() = default;
  explicit ShardMap(std::vector<ShardMember> members);

  [[nodiscard]] size_t size() const { return members_.size(); }
  [[nodiscard]] const std::vector<ShardMember>& members() const {
    return members_;
  }

  /// Owning shard for `key` (consistent hashing). Requires size() > 0.
  [[nodiscard]] uint32_t owner(uint64_t key) const;

  /// Node hosting `shard`; kInvalidNode if unknown.
  [[nodiscard]] netsim::NodeId node(uint32_t shard) const;

  /// Shard hosted on `node`; kInvalidShard if the node is not a member.
  [[nodiscard]] uint32_t shard_of(netsim::NodeId node) const;

  /// Next shard id in ring order (by member index, cyclic). The ring
  /// successor is both the replication target and the forwarding direction
  /// for cross-shard messages.
  [[nodiscard]] uint32_t successor(uint32_t shard) const;

 private:
  std::vector<ShardMember> members_;           // sorted by shard id
  std::vector<std::pair<uint64_t, uint32_t>> ring_;  // (point, shard)
};

/// Per-origin-shard monotone version counters (rollback protection).
class VersionVector {
 public:
  [[nodiscard]] uint64_t get(uint32_t shard) const;
  /// Next version for an admission originated by `shard` (increments).
  uint64_t bump(uint32_t shard);
  /// Records `version` from `shard` if it advances the high-water mark.
  /// Returns false (and changes nothing) for duplicates / stale versions.
  bool observe(uint32_t shard, uint64_t version);
  /// True iff every component of `other` is <= the matching one here.
  [[nodiscard]] bool dominates(const VersionVector& other) const;
  /// Component-wise max with `other`. Monotone: no component decreases.
  void merge(const VersionVector& other);
  [[nodiscard]] uint64_t total() const;
  [[nodiscard]] bool empty() const { return high_.empty(); }

  [[nodiscard]] crypto::Bytes serialize() const;
  static VersionVector deserialize(crypto::BytesView data);

 private:
  std::map<uint32_t, uint64_t> high_;
};

/// Replication wire tags. Reserved range 0xE0..0xEF inside kPortSecure
/// records; application payloads must keep their first byte below this.
enum ShardMsg : uint8_t {
  kShardTagLo = 0xE0,
  // origin | version | key | copies | send_ts_us | LV entry. send_ts_us is
  // the sender's virtual-clock stamp (0 when telemetry is off) — receivers
  // turn it into the per-shard hop-latency histogram. Always present, so
  // the frame length never depends on the telemetry runtime switch.
  kShardAppend = 0xE1,
  kShardJoinReq = 0xE2,   // joiner | LV version-vector
  kShardSnapshot = 0xE3,  // donor | LV version-vector | LV app-state
  kShardApp = 0xE4,       // from | target | ttl | LV inner (ring-forwarded)
  kShardTagHi = 0xEF,
};

[[nodiscard]] inline bool is_shard_payload(crypto::BytesView payload) {
  return !payload.empty() && payload[0] >= kShardTagLo &&
         payload[0] <= kShardTagHi;
}

/// Shard group configuration, pushed from the host through an app-defined
/// control ecall. The host is untrusted: the config only names *who* to
/// replicate with — every named peer must still pass mutual attestation
/// plus the same-measurement check before any state flows.
struct ShardConfig {
  uint32_t self = 0;
  uint32_t replication = 2;  // copies of each admitted entry (incl. origin)
  std::vector<ShardMember> members;

  [[nodiscard]] crypto::Bytes serialize() const;
  static ShardConfig deserialize(crypto::BytesView data);
};

// --- Wire codec ---

crypto::Bytes encode_shard_append(uint32_t origin, uint64_t version,
                                  uint64_t key, uint32_t copies_left,
                                  uint64_t send_ts_us,
                                  crypto::BytesView entry);
crypto::Bytes encode_shard_join(uint32_t joiner, const VersionVector& vv);
crypto::Bytes encode_shard_snapshot(uint32_t donor, const VersionVector& vv,
                                    crypto::BytesView state);
crypto::Bytes encode_shard_app(uint32_t from, uint32_t target, uint8_t ttl,
                               crypto::BytesView inner);

}  // namespace tenet::core
