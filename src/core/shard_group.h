// Sharded, replicated enclave control plane (DESIGN.md §14).
//
// ShardReplica runs *inside* an enclave as part of a SecureApp: it owns the
// replication protocol (attested ring replication, version-vector rollback
// protection, join-by-state-transfer) while the application stays in charge
// of what an "admitted entry" means. ShardRouter runs on the *untrusted*
// host: it only maps keys to shard nodes and re-points clients when a shard
// dies — it never sees plaintext state (everything shard-to-shard rides the
// attested SecureChannel).
//
// Topology: shards form a ring ordered by shard id. Each shard attests only
// its ring successor (channels are bidirectional, so the predecessor's
// channel arrives for free) — O(1) shard-to-shard handshakes per replica
// regardless of group size, which is what keeps the per-shard admission
// cost flat as the group grows. Admitted entries are replicated to the
// `replication-1` ring successors; cross-shard application messages are
// forwarded hop-by-hop along the ring with a TTL.
//
// Trust: the shard *membership list* comes from the untrusted host, but a
// listed peer gets state only after (a) mutual attestation succeeds and
// (b) its measurement equals our own — replicas run the same image, so a
// patched build is rejected at the state-transfer layer even when the
// app's attestation policy is looser. Liveness hints (peer up/down) also
// come from the host; they only steer availability (fail-closed serving
// decisions, re-forwarding), never integrity.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "core/replication.h"
#include "crypto/bytes.h"
#include "netsim/message.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace tenet::core {

class Ctx;
class SecureApp;

/// Target of a broadcast_app frame: every *other* member of the group,
/// ring-forwarded (each hop delivers and passes it on until the walk
/// closes back on the originator).
inline constexpr uint32_t kShardBroadcast = 0xFFFFFFFEu;

class ShardReplica {
 public:
  /// Application integration points. `apply` must be idempotent per
  /// (origin, key) — the replica already filters duplicate versions, but a
  /// snapshot install followed by replayed appends may re-present entries.
  struct Hooks {
    /// A replicated admission from `origin` reached us (first time only).
    std::function<void(Ctx&, uint32_t origin, uint64_t key,
                       crypto::BytesView entry)>
        apply;
    /// Full application state for a joining replica.
    std::function<crypto::Bytes(Ctx&)> snapshot;
    /// Integrates a donor snapshot by MERGING it into local state (union
    /// by key, donor wins on collision); false on parse failure, in which
    /// case local state must be unchanged. Called only when the donor's
    /// version vector is not dominated by ours — the donor's entries are
    /// never provably stale, and with one admitting shard per key a
    /// per-key overwrite cannot travel backwards in time. Must never
    /// discard local entries the donor lacks: under ring replication the
    /// donor sees only its slice of origins.
    std::function<bool(Ctx&, crypto::BytesView state)> install;
    /// A cross-shard application message addressed to this shard.
    /// `direct` tells a send_app_direct frame, whose `from` is the member
    /// the channel authenticated, from a broadcast, whose `from` is only
    /// the origin its relay names: any member can start a broadcast that
    /// names another.
    std::function<void(Ctx&, uint32_t from, bool direct,
                       crypto::BytesView inner)>
        app_message;
    /// A peer shard was declared down (host hint or retry-budget
    /// exhaustion): re-forward anything we hold on its behalf.
    std::function<void(Ctx&, uint32_t shard)> shard_down;
    /// A previously-down peer shard was declared back up.
    std::function<void(Ctx&, uint32_t shard)> shard_up;
  };

  ShardReplica(SecureApp& app, ShardConfig cfg, Hooks hooks);

  /// True when the group actually has peers (>1 member). A 1-member group
  /// is configured but inert: no connects, no replication traffic, no RNG
  /// draws — byte-identical to an unsharded run.
  [[nodiscard]] bool active() const { return cfg_.members.size() > 1; }
  [[nodiscard]] uint32_t self_shard() const { return cfg_.self; }
  [[nodiscard]] const std::vector<ShardMember>& members() const {
    return cfg_.members;
  }
  [[nodiscard]] const ShardMap& map() const { return map_; }

  /// Fail-closed availability: we serve admissions only while we can still
  /// reach a strict majority of the group (counting ourselves). A minority
  /// partition therefore stops admitting rather than diverging.
  [[nodiscard]] bool serving() const;
  [[nodiscard]] bool is_reachable(uint32_t shard) const;

  [[nodiscard]] const VersionVector& versions() const { return versions_; }
  [[nodiscard]] uint64_t entries_applied() const { return entries_applied_; }
  [[nodiscard]] uint64_t rollbacks_refused() const {
    return rollbacks_refused_;
  }
  [[nodiscard]] uint64_t rejected_peers() const { return rejected_peers_; }
  /// True once a join round-trip completed (or we never needed one).
  [[nodiscard]] bool joined() const { return joined_; }

  /// Kicks off ring attestation (connects to the ring successor). Called
  /// from the configure control; a no-op for 1-member groups.
  void start(Ctx& ctx);

  /// Admits an entry originated *here*: bumps our version component and
  /// replicates to the ring successors. Returns the assigned version.
  uint64_t admit(Ctx& ctx, uint64_t key, crypto::BytesView entry);

  /// Sends an application payload to every other member, ring-forwarded.
  /// `inner` must not start with a byte in [0xE0, 0xEF].
  void broadcast_app(Ctx& ctx, crypto::BytesView inner);

  /// Sends an application payload straight to `target`'s node (one hop, no
  /// ring relay). For bulk exchange — a ring relay re-encrypts the payload
  /// at every intermediate shard, which is exactly the cost a sharded
  /// computation is trying to shed. First use opens (and attests) a direct
  /// channel; the message queues until the handshake lands.
  void send_app_direct(Ctx& ctx, uint32_t target, crypto::BytesView inner);

  /// Requests attested state transfer from the nearest reachable ring
  /// neighbour (restart/rejoin path). Safe to call repeatedly.
  void begin_join(Ctx& ctx);

  /// Ingest hook: called by SecureApp for authenticated kPortSecure
  /// payloads whose tag is in the shard range. Returns true when consumed.
  bool handle_secure(Ctx& ctx, netsim::NodeId peer, crypto::BytesView payload);

  /// SecureApp event chaining.
  void peer_attested(Ctx& ctx, netsim::NodeId peer);
  void peer_failed(Ctx& ctx, netsim::NodeId peer);

  /// Host liveness hint (untrusted; availability-only). A member marked
  /// down loses its channel here, so a hint that was false costs one
  /// re-attestation, never a message sealed for a dead enclave.
  void set_reachable(Ctx& ctx, uint32_t shard, bool up);

  /// Version vector for the sealed checkpoint (rollback-proof handoff: a
  /// restored checkpoint remembers every version it ever observed).
  [[nodiscard]] crypto::Bytes checkpoint_state() const {
    return versions_.serialize();
  }
  void restore_state(crypto::BytesView state) {
    versions_ = VersionVector::deserialize(state);
  }

 private:
  /// Measurement gate: shard messages are honored only from attested peers
  /// running our exact image. Counts + drops everything else.
  bool peer_trusted(Ctx& ctx, netsim::NodeId peer);
  /// First reachable shard walking successor-order from self (next hop for
  /// replication and ring forwarding); kInvalidShard when alone/cut off.
  [[nodiscard]] uint32_t next_hop() const;
  /// Sends (or queues until attested) a shard message to a shard's node.
  void send_to_shard(Ctx& ctx, uint32_t shard, crypto::Bytes msg);
  void mark_down(Ctx& ctx, uint32_t shard);

  void handle_append(Ctx& ctx, crypto::Reader& r);
  void handle_join(Ctx& ctx, uint32_t joiner, crypto::Reader& r);
  void handle_snapshot(Ctx& ctx, crypto::Reader& r);
  void handle_app(Ctx& ctx, netsim::NodeId peer, crypto::Reader& r);

  /// A shard message queued behind an in-flight attestation, together with
  /// the trace context active when it was queued — flushing re-installs the
  /// context so the cross-shard hop stays on the trace that caused it
  /// instead of being attributed to the handshake that unblocked it.
  struct PendingMsg {
    crypto::Bytes bytes;
    telemetry::TraceContext trace;
  };

  SecureApp& app_;
  ShardConfig cfg_;
  ShardMap map_;
  Hooks hooks_;
  VersionVector versions_;
  std::map<uint32_t, bool> reachable_;  // peer shard -> believed up
  std::map<netsim::NodeId, std::vector<PendingMsg>> pending_;
  /// Lazily-bound "shard.s<self>.hop_latency_us" histogram (per-shard
  /// replication hop latency, fed from append send timestamps).
  telemetry::Histogram* hop_hist_ = nullptr;
  uint64_t entries_applied_ = 0;
  uint64_t rollbacks_refused_ = 0;
  uint64_t rejected_peers_ = 0;
  bool joined_ = true;  // cleared by begin_join until a snapshot answer
};

/// Untrusted host-side front end: maps application keys to shard nodes and
/// routes around shards the host believes are down (successor-order
/// fallback, mirroring the in-enclave replication direction so the fallback
/// shard is exactly the one holding the replica). Sees node ids only —
/// payloads stay sealed end-to-end between clients and replicas.
class ShardRouter {
 public:
  ShardRouter() = default;
  explicit ShardRouter(ShardMap map) : map_(std::move(map)) {}

  [[nodiscard]] const ShardMap& map() const { return map_; }
  void set_down(uint32_t shard, bool down) { down_[shard] = down; }
  [[nodiscard]] bool is_down(uint32_t shard) const {
    const auto it = down_.find(shard);
    return it != down_.end() && it->second;
  }

  /// Owner shard for `key`, skipping down shards in successor order.
  [[nodiscard]] uint32_t route_shard(uint64_t key) const;
  /// Node hosting route_shard(key).
  [[nodiscard]] netsim::NodeId route(uint64_t key) const {
    return map_.node(route_shard(key));
  }

 private:
  ShardMap map_;
  std::map<uint32_t, bool> down_;
};

}  // namespace tenet::core
