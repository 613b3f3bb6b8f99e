#include "core/shard_group.h"

#include <algorithm>
#include <stdexcept>

#include "core/secure_app.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace tenet::core {

namespace {
/// Virtual-clock stamp carried in append frames so the receiver can account
/// the cross-shard hop. 0 while telemetry is off — the field is appended
/// either way, so the wire length never depends on the runtime switch.
uint64_t append_send_ts() {
  return telemetry::enabled() ? telemetry::tracer().clock_now() : 0;
}
}  // namespace

ShardReplica::ShardReplica(SecureApp& app, ShardConfig cfg, Hooks hooks)
    : app_(app), cfg_(std::move(cfg)), map_(cfg_.members),
      hooks_(std::move(hooks)) {}

bool ShardReplica::serving() const {
  size_t up = 1;  // self
  for (const ShardMember& m : cfg_.members) {
    if (m.shard != cfg_.self && is_reachable(m.shard)) ++up;
  }
  return 2 * up > cfg_.members.size();
}

bool ShardReplica::is_reachable(uint32_t shard) const {
  if (shard == cfg_.self) return true;
  const auto it = reachable_.find(shard);
  return it == reachable_.end() || it->second;  // optimistic until told
}

uint32_t ShardReplica::next_hop() const {
  uint32_t s = map_.successor(cfg_.self);
  while (s != cfg_.self && s != kInvalidShard) {
    if (is_reachable(s)) return s;
    s = map_.successor(s);
  }
  return kInvalidShard;
}

void ShardReplica::start(Ctx& ctx) {
  if (!active()) return;
  const uint32_t succ = map_.successor(cfg_.self);
  if (succ != kInvalidShard && succ != cfg_.self) {
    ctx.connect(map_.node(succ));
  }
}

bool ShardReplica::peer_trusted(Ctx& ctx, netsim::NodeId peer) {
  if (map_.shard_of(peer) == kInvalidShard) {
    ++rejected_peers_;
    TENET_COUNT("shard.peer_rejected");
    return false;
  }
  const sgx::AttestationOutcome* info = app_.peer_info(peer);
  // Replicas all run the same image: state flows only between enclaves
  // whose attested measurement equals our own. A patched build — even one
  // the app-level attestation policy would admit — gets no state.
  if (info == nullptr ||
      !(info->peer_measurement == ctx.env().self_measurement())) {
    ++rejected_peers_;
    TENET_COUNT("shard.peer_rejected");
    return false;
  }
  return true;
}

void ShardReplica::send_to_shard(Ctx& ctx, uint32_t shard,
                                 crypto::Bytes msg) {
  const netsim::NodeId node = map_.node(shard);
  if (node == netsim::kInvalidNode) return;
  if (app_.is_attested(node)) {
    try {
      ctx.send_secure(node, msg);
      return;
    } catch (const std::logic_error&) {
      // Channel not ready (mid-rekey): fall through to the pending queue.
    }
  }
  PendingMsg pm{std::move(msg), {}};
  TENET_TRACE_CAPTURE(pm.trace);
  pending_[node].push_back(std::move(pm));
  ctx.connect(node);
}

uint64_t ShardReplica::admit(Ctx& ctx, uint64_t key,
                             crypto::BytesView entry) {
  const uint64_t version = versions_.bump(cfg_.self);
  if (!active()) return version;
  const size_t copies =
      std::min<size_t>(cfg_.replication, cfg_.members.size()) - 1;
  if (copies > 0) {
    const uint32_t hop = next_hop();
    if (hop != kInvalidShard) {
      TENET_SPAN("replication", "replicate");
      TENET_SPAN_SHARD(cfg_.self);
      TENET_COUNT("shard.appends_sent");
      send_to_shard(ctx, hop,
                    encode_shard_append(cfg_.self, version, key,
                                        static_cast<uint32_t>(copies),
                                        append_send_ts(), entry));
    }
  }
  return version;
}

void ShardReplica::broadcast_app(Ctx& ctx, crypto::BytesView inner) {
  const uint32_t hop = next_hop();
  if (hop == kInvalidShard) return;
  TENET_SPAN("shard", "forward_app");
  TENET_COUNT("shard.app_sent");
  send_to_shard(ctx, hop,
                encode_shard_app(cfg_.self, kShardBroadcast,
                                 static_cast<uint8_t>(cfg_.members.size()),
                                 inner));
}

void ShardReplica::send_app_direct(Ctx& ctx, uint32_t target,
                                   crypto::BytesView inner) {
  if (target == cfg_.self || target == kShardBroadcast) return;
  TENET_COUNT("shard.app_sent_direct");
  send_to_shard(ctx, target, encode_shard_app(cfg_.self, target, 1, inner));
}

void ShardReplica::begin_join(Ctx& ctx) {
  if (!active()) return;
  const uint32_t hop = next_hop();
  if (hop == kInvalidShard) return;  // alone: nothing to catch up from
  joined_ = false;
  TENET_COUNT("shard.join_requests");
  send_to_shard(ctx, hop, encode_shard_join(cfg_.self, versions_));
}

bool ShardReplica::handle_secure(Ctx& ctx, netsim::NodeId peer,
                                 crypto::BytesView payload) {
  if (!is_shard_payload(payload)) return false;
  if (!peer_trusted(ctx, peer)) return true;  // consumed (and dropped)
  try {
    crypto::Reader r(payload);
    const uint8_t tag = r.u8();
    switch (tag) {
      case kShardAppend:
        handle_append(ctx, r);
        return true;
      case kShardJoinReq: {
        const uint32_t joiner = r.u32();
        handle_join(ctx, joiner, r);
        return true;
      }
      case kShardSnapshot:
        handle_snapshot(ctx, r);
        return true;
      case kShardApp:
        handle_app(ctx, peer, r);
        return true;
      default:
        return true;  // reserved shard-range tag: consume, ignore
    }
  } catch (const std::exception&) {
    return true;  // malformed shard message from a trusted peer: drop
  }
}

void ShardReplica::handle_append(Ctx& ctx, crypto::Reader& r) {
  const uint32_t origin = r.u32();
  const uint64_t version = r.u64();
  const uint64_t key = r.u64();
  // Honest senders never ask for more copies than the group has members;
  // clamping bounds the ring walk a hostile copies=2^32-1 would otherwise
  // buy (billions of forwarding hops from one frame).
  const uint32_t copies = std::min<uint32_t>(
      r.u32(), static_cast<uint32_t>(cfg_.members.size()));
  const uint64_t send_ts = r.u64();
  const crypto::BytesView entry = r.lv_view();
  if (send_ts != 0 && telemetry::enabled()) {
    if (hop_hist_ == nullptr) {
      hop_hist_ = &telemetry::registry().histogram(
          "shard.s" + std::to_string(cfg_.self) + ".hop_latency_us");
    }
    const uint64_t now = telemetry::tracer().clock_now();
    // A hostile peer can claim any stamp; clamp instead of underflowing.
    hop_hist_->record(now >= send_ts ? now - send_ts : 0);
  }
  if (versions_.observe(origin, version)) {
    TENET_SPAN("replication", "apply");
    TENET_SPAN_SHARD(cfg_.self);
    ++entries_applied_;
    TENET_COUNT("shard.entries_applied");
    if (hooks_.apply) hooks_.apply(ctx, origin, key, entry);
  } else {
    // Idempotent apply: duplicate or stale version for this origin.
    TENET_COUNT("shard.duplicate_appends");
  }
  if (copies > 1) {
    const uint32_t hop = next_hop();
    if (hop != kInvalidShard && hop != origin) {
      // Re-stamp: each ring hop measures its own leg, not the whole walk.
      send_to_shard(ctx, hop,
                    encode_shard_append(origin, version, key, copies - 1,
                                        append_send_ts(), entry));
    }
  }
}

void ShardReplica::handle_join(Ctx& ctx, uint32_t joiner, crypto::Reader& r) {
  (void)VersionVector::deserialize(r.lv_view());  // validated for shape
  TENET_SPAN("state_transfer", "serve_join");
  TENET_SPAN_SHARD(cfg_.self);
  TENET_COUNT("shard.joins_served");
  // Always answer with our full state; the joiner's domination check
  // decides whether it installs (a stale donor is refused on their side).
  crypto::Bytes state = hooks_.snapshot ? hooks_.snapshot(ctx) : crypto::Bytes{};
  send_to_shard(ctx, joiner,
                encode_shard_snapshot(cfg_.self, versions_, state));
}

void ShardReplica::handle_snapshot(Ctx& ctx, crypto::Reader& r) {
  (void)r.u32();  // donor shard id (informational; trust came from the gate)
  const VersionVector incoming =
      VersionVector::deserialize(r.lv_view());
  const crypto::BytesView state = r.lv_view();
  if (versions_.dominates(incoming)) {
    if (incoming.dominates(versions_)) {
      joined_ = true;  // identical state: nothing to transfer
    } else {
      // Rollback attempt: the offered state is strictly older than what we
      // have provably observed (our sealed checkpoint carries the vector).
      ++rollbacks_refused_;
      TENET_COUNT("shard.rollbacks_refused");
      TENET_EVENT(kRollbackRefused, cfg_.self, cfg_.self);
    }
    return;
  }
  // The snapshot carries versions beyond ours — either it strictly
  // dominates, or the histories are incomparable. Incomparable is the
  // normal honest case under ring replication (each replica observes only
  // the origins preceding it on the ring, so a rejoiner and its donor hold
  // different slices), so it must not be lumped in with rollbacks: the
  // install hook MERGES the donor's entries into local state and the
  // vector advances by component-wise max. No component ever decreases,
  // which is the whole rollback-protection invariant.
  TENET_SPAN("state_transfer", "install_snapshot");
  TENET_SPAN_SHARD(cfg_.self);
  if (hooks_.install && hooks_.install(ctx, state)) {
    versions_.merge(incoming);
    joined_ = true;
    TENET_COUNT("shard.snapshots_installed");
    // a = installing shard, b = total versions the merged vector covers.
    TENET_EVENT(kSnapshotInstalled, cfg_.self, cfg_.self, versions_.total());
  }
}

void ShardReplica::handle_app(Ctx& ctx, netsim::NodeId peer,
                              crypto::Reader& r) {
  const uint32_t from = r.u32();
  const uint32_t target = r.u32();
  const uint8_t ttl = r.u8();
  const crypto::BytesView inner = r.lv_view();
  // Direct frames address us; broadcasts address everyone. Anything else
  // is for no one here.
  if (target != cfg_.self && target != kShardBroadcast) return;
  // A direct frame travels one hop, so its origin is the member on the
  // other end of the channel; a frame naming another member is forged.
  const bool direct = target != kShardBroadcast;
  if (direct && from != map_.shard_of(peer)) return;
  TENET_SPAN("shard", "app_deliver");
  if (hooks_.app_message) hooks_.app_message(ctx, from, direct, inner);
  if (direct) return;
  // Broadcast: deliver here, then keep walking the ring until it closes on
  // the originator. The TTL bounds total deliveries even if the walk skips
  // past a freshly-dead originator.
  if (ttl <= 1) return;
  const uint32_t hop = next_hop();
  if (hop == kInvalidShard || hop == from) return;
  send_to_shard(ctx, hop, encode_shard_app(from, target, ttl - 1, inner));
}

void ShardReplica::peer_attested(Ctx& ctx, netsim::NodeId peer) {
  const uint32_t shard = map_.shard_of(peer);
  if (shard == kInvalidShard) return;
  if (!peer_trusted(ctx, peer)) return;
  const auto was_down = reachable_.find(shard);
  if (was_down != reachable_.end() && !was_down->second) {
    reachable_[shard] = true;
    TENET_EVENT(kShardUp, cfg_.self, shard);
    if (hooks_.shard_up) hooks_.shard_up(ctx, shard);
  }
  auto it = pending_.find(peer);
  if (it == pending_.end()) return;
  std::vector<PendingMsg> queued = std::move(it->second);
  pending_.erase(it);
  for (PendingMsg& pm : queued) {
    try {
      // Re-install the context captured at queue time: the hop belongs to
      // the trace that queued it, not to the attestation that unblocked it.
      TENET_TRACE_CONTEXT(pm.trace);
      ctx.send_secure(peer, pm.bytes);
    } catch (const std::logic_error&) {
      pending_[peer].push_back(std::move(pm));
    }
  }
}

void ShardReplica::peer_failed(Ctx& ctx, netsim::NodeId peer) {
  const uint32_t shard = map_.shard_of(peer);
  if (shard == kInvalidShard) return;
  mark_down(ctx, shard);
}

void ShardReplica::mark_down(Ctx& ctx, uint32_t shard) {
  if (shard == cfg_.self || !is_reachable(shard)) return;
  reachable_[shard] = false;
  // Whatever comes back (the same enclave or a restarted one) is re-attested
  // before anything more is sent it: sends queue in pending_ until then.
  const netsim::NodeId node = map_.node(shard);
  if (node != netsim::kInvalidNode) ctx.disconnect(node);
  TENET_COUNT("shard.peer_down");
  TENET_EVENT(kShardDown, cfg_.self, shard);  // a = the shard believed down
  if (hooks_.shard_down) hooks_.shard_down(ctx, shard);
}

void ShardReplica::set_reachable(Ctx& ctx, uint32_t shard, bool up) {
  if (shard == cfg_.self) return;
  if (!up) {
    mark_down(ctx, shard);
    return;
  }
  if (is_reachable(shard)) return;
  reachable_[shard] = true;
  TENET_COUNT("shard.peer_up");
  TENET_EVENT(kShardUp, cfg_.self, shard);
  if (hooks_.shard_up) hooks_.shard_up(ctx, shard);
  const netsim::NodeId node = map_.node(shard);
  // Its channel was dropped when it went down; re-attest eagerly so queued
  // traffic can flow (no-op if already attested or in progress).
  if (node != netsim::kInvalidNode && !app_.is_attested(node)) {
    ctx.connect(node);
  }
}

uint32_t ShardRouter::route_shard(uint64_t key) const {
  uint32_t shard = map_.owner(key);
  for (size_t hops = 0; hops < map_.size() && is_down(shard); ++hops) {
    shard = map_.successor(shard);
  }
  return shard;
}

}  // namespace tenet::core
