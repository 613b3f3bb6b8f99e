#include "routing/apps.h"

#include "core/ports.h"
#include "crypto/work.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace tenet::routing {

namespace {

/// Local-processing work both deployments perform identically: an AS-local
/// controller validates and installs every route it receives into its
/// local RIB/FIB, and prepares/validates its policy before submission.
/// (This is the "13M normal instructions" of work the paper's AS-local
/// controllers do natively; without it the baseline would be a no-op and
/// the SGX overhead ratio meaningless.)
void charge_route_install(const RoutingTable& table) {
  for (const auto& [prefix, route] : table) {
    crypto::work::charge_alu(2'000 + 120 * route.as_path.size());
  }
}

void charge_policy_preparation(const RoutingPolicy& policy) {
  crypto::work::charge_alu(1'500 + 600 * policy.neighbor_rel.size() +
                           300 * policy.prefixes.size());
}

/// Memory-accounting estimate for storing a policy/table in the enclave.
size_t retained_size(const RoutingPolicy& p) {
  return 64 + p.neighbor_rel.size() * 24 + p.prefixes.size() * 8;
}
size_t retained_size(const RoutingTable& t) {
  size_t s = 64;
  for (const auto& [prefix, route] : t) s += 48 + route.as_path.size() * 8;
  return s;
}

/// Cross-shard application messages (inner payloads of core::kShardApp).
enum AggMsg : uint8_t {
  kAggPolicy = 1,   // u32 admitting_shard | u32 as_node | LV policy
  // u32 from_shard | u32 n | n × (u32 asn | u32 n_rows | rows… |
  //                              u32 n_cands | cands…), each route LV-coded.
  kAggPartial = 3,
};

}  // namespace

// ---------------------------------------------------------------------------
// InterDomainControllerApp
// ---------------------------------------------------------------------------

InterDomainControllerApp::InterDomainControllerApp(
    const sgx::Authority& authority, sgx::AttestationConfig config,
    size_t expected_ases)
    : SecureApp(authority, config), expected_ases_(expected_ases) {}

void InterDomainControllerApp::on_secure_message(core::Ctx& ctx,
                                                 netsim::NodeId peer,
                                                 crypto::BytesView payload) {
  switch (message_type(payload)) {
    case MsgType::kPolicySubmission:
      handle_submission(ctx, peer, message_body(payload));
      break;
    case MsgType::kRegisterPredicate:
      handle_register(ctx, peer, message_body(payload));
      break;
    case MsgType::kVerifyRequest:
      handle_verify(ctx, peer, message_body(payload));
      break;
    default:
      break;  // unknown message: ignore (peer is attested but confused)
  }
}

void InterDomainControllerApp::handle_submission(core::Ctx& ctx,
                                                 netsim::NodeId peer,
                                                 crypto::BytesView body) {
  TENET_COUNT("app.routing.policy_submissions");
  if (shard_active() && !shard()->serving()) {
    // Fail-closed: a minority partition must not admit state that the
    // majority side could be admitting differently.
    TENET_COUNT("app.routing.submissions_dropped");
    return;
  }
  RoutingPolicy policy;
  try {
    policy = RoutingPolicy::deserialize(body);
  } catch (const std::exception&) {
    return;
  }
  // One node speaks for one AS; re-submission replaces (policy update).
  const auto existing = asn_to_node_.find(policy.asn);
  if (existing != asn_to_node_.end() && existing->second != peer) {
    return;  // another (attested) node already claims this ASN
  }
  const AsNumber asn = policy.asn;
  const uint32_t self =
      shard_active() ? shard()->self_shard() : uint32_t{0};
  const bool first_admission = policies_.find(asn) == policies_.end();
  const bool changed = store_policy(ctx, self, peer, std::move(policy));
  if (shard_active()) {
    // The admission is durable once replicated: the ring successor holds a
    // copy before any other shard ever sees it, so a shard death at any
    // point loses nothing that was admitted.
    crypto::Bytes entry;
    crypto::append_u32(entry, peer);
    crypto::append_lv(entry, policies_.at(asn).serialize());
    shard()->admit(ctx, asn, entry);
    // Every replica needs every policy: the fixpoint is sharded by origin
    // and each shard computes its slice over the full policy set. First
    // admissions batch into one broadcast (initial fill is bursty and
    // nobody can compute until the set is complete anyway); changes to an
    // existing admission flood immediately — peers act on the binding.
    if (changed && first_admission) {
      pending_flood_.push_back(asn);
      maybe_flush_floods(ctx);
    } else if (changed) {
      flood_policies(ctx, {asn});
    }
  }
  maybe_compute(ctx);
}

void InterDomainControllerApp::maybe_compute(core::Ctx& ctx) {
  // Recompute whenever a full policy set is present — including after a
  // live policy *update* from an AS (re-submission replaces the stored
  // policy and triggers fresh routes for everyone). In a shard group the
  // fixpoint is partitioned by origin instead of run whole.
  if (shard_active()) {
    maybe_compute_sharded(ctx);
    return;
  }
  if (policies_.size() < expected_ases_) return;
  // All parties submitted: run the BGP-equivalent computation inside the
  // enclave and return to each AS exactly its own routes.
  ComputationResult result = BgpComputation::compute(policies_);
  size_t retained = 0;
  size_t candidates = 0;
  for (const auto& [asn, table] : result.tables) retained += retained_size(table);
  for (const auto& [asn, per_prefix] : result.candidates) {
    for (const auto& [p, v] : per_prefix) candidates += v.size();
  }
  // The computation's transient allocations (candidate Route objects,
  // path vectors) hit the enclave heap — "dynamic memory allocation that
  // causes context switches" is exactly where Table 4 says the overhead
  // comes from. Natively the same allocations are near-free.
  charge_compute_arena(ctx, retained + candidates * 1'792);
  result_ = std::move(result);
  for (const auto& [asn, node] : asn_to_node_) {
    const auto it = result_->tables.find(asn);
    static const RoutingTable kEmpty;
    const RoutingTable& table = it != result_->tables.end() ? it->second : kEmpty;
    if (is_attested(node)) {
      ctx.send_secure(node, encode_route_advertisement(table));
    }
    // After a restore the bindings are back but the channels are not: an
    // AS that has not re-attested yet gets its table on the recompute its
    // own re-submission triggers.
  }
}

void InterDomainControllerApp::maybe_compute_sharded(core::Ctx& ctx) {
  maybe_flush_floods(ctx);
  if (policies_.size() < expected_ases_) return;
  if (!slice_valid_) {
    // The compute partition is deliberately decoupled from fronting:
    // fronting follows the (hash-based, sticky) admission assignment, but
    // hashing 96 dense keys over 8 buckets leaves the largest bucket ~2×
    // the fair share — and the slowest slice bounds controller
    // throughput. Round-robin over the sorted policy set is perfectly
    // balanced, and every replica derives the same partition from state
    // it already shares (the flooded policy set + the host's liveness
    // hints), so no coordination message is needed.
    const uint32_t self = shard()->self_shard();
    std::vector<uint32_t> live;
    for (const core::ShardMember& m : shard()->members()) {
      if (shard()->is_reachable(m.shard)) live.push_back(m.shard);
    }
    size_t my_rank = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i] == self) my_rank = i;
    }
    std::set<AsNumber> origins;
    size_t index = 0;
    for (const auto& [asn, policy] : policies_) {
      if (index++ % live.size() == my_rank) origins.insert(asn);
    }
    ComputationResult slice = BgpComputation::compute(policies_, origins);
    size_t retained = 0;
    size_t candidates = 0;
    for (const auto& [asn, table] : slice.tables) {
      retained += retained_size(table);
    }
    for (const auto& [asn, per_prefix] : slice.candidates) {
      for (const auto& [p, v] : per_prefix) candidates += v.size();
    }
    charge_compute_arena(ctx, retained + candidates * 1'792);
    slice_ = std::move(slice);
    slice_valid_ = true;
    distribution_current_ = false;
    send_partials(ctx);
  }
  maybe_distribute_sharded(ctx);
}

void InterDomainControllerApp::send_partials(core::Ctx& ctx, uint32_t only) {
  if (!slice_valid_ || !slice_.has_value()) return;
  const uint32_t self = shard()->self_shard();
  for (const core::ShardMember& m : shard()->members()) {
    if (m.shard == self || !shard()->is_reachable(m.shard)) continue;
    if (only != core::kInvalidShard && m.shard != only) continue;
    // Bundle our slice's rows for every AS this member fronts. An empty
    // bundle still goes out: the receiver counts senders, not rows.
    std::vector<AsNumber> fronted;
    size_t bytes = 9;  // tag | from_shard | n, then LV-coded routes
    for (const auto& [asn, ab] : admitted_by_) {
      if (ab.shard != m.shard) continue;
      fronted.push_back(asn);
      bytes += 12;  // asn | n_rows | n_cands
      const auto t = slice_->tables.find(asn);
      if (t != slice_->tables.end()) {
        for (const auto& [p, r] : t->second) bytes += 4 + r.serialized_size();
      }
      const auto c = slice_->candidates.find(asn);
      if (c != slice_->candidates.end()) {
        for (const auto& [p, v] : c->second) {
          for (const Route& r : v) bytes += 4 + r.serialized_size();
        }
      }
    }
    crypto::Bytes inner;
    inner.reserve(bytes);
    inner.push_back(kAggPartial);
    crypto::append_u32(inner, self);
    crypto::append_u32(inner, static_cast<uint32_t>(fronted.size()));
    for (const AsNumber asn : fronted) {
      crypto::append_u32(inner, asn);
      const auto t = slice_->tables.find(asn);
      const uint32_t n_rows =
          t != slice_->tables.end() ? static_cast<uint32_t>(t->second.size())
                                    : 0;
      crypto::append_u32(inner, n_rows);
      if (t != slice_->tables.end()) {
        for (const auto& [p, route] : t->second) {
          crypto::append_lv(inner, route.serialize());
        }
      }
      const auto c = slice_->candidates.find(asn);
      uint32_t n_cands = 0;
      if (c != slice_->candidates.end()) {
        for (const auto& [p, v] : c->second) {
          n_cands += static_cast<uint32_t>(v.size());
        }
      }
      crypto::append_u32(inner, n_cands);
      if (c != slice_->candidates.end()) {
        for (const auto& [p, v] : c->second) {
          for (const Route& r : v) crypto::append_lv(inner, r.serialize());
        }
      }
    }
    shard()->send_app_direct(ctx, m.shard, inner);
  }
}

void InterDomainControllerApp::maybe_distribute_sharded(core::Ctx& ctx) {
  if (!slice_valid_ || !slice_.has_value()) return;
  // A full pass is a function of slice_, partials_ and admitted_by_ (plus
  // sent_tables_, which only this function writes): while none of them has
  // changed since the last one, it would rebuild and re-encode every
  // fronted table only to find each equal to what was sent. slice_ and
  // partials_ clear the flag where they change; every write to
  // admitted_by_ (store_policy, shard_install, reforward_admitted) also
  // clears slice_valid_, and the recompute that follows assigns slice_.
  if (distribution_current_) return;
  const uint32_t self = shard()->self_shard();
  for (const core::ShardMember& m : shard()->members()) {
    if (m.shard == self) continue;
    if (shard()->is_reachable(m.shard) && !partials_.contains(m.shard)) {
      return;  // a live member's slice is still in flight
    }
  }
  // Assemble complete tables for our fronted ASes: our slice's rows plus
  // every member's partial (slices partition the prefix space, so the
  // union is the full table; merge order is deterministic — own slice,
  // then senders in shard-id order).
  ComputationResult mine;
  for (const auto& [asn, ab] : admitted_by_) {
    if (ab.shard != self) continue;
    RoutingTable table;
    std::map<Prefix, std::vector<Route>> cands;
    const auto t = slice_->tables.find(asn);
    if (t != slice_->tables.end()) table = t->second;
    const auto c = slice_->candidates.find(asn);
    if (c != slice_->candidates.end()) cands = c->second;
    for (const auto& [sender, rows] : partials_) {
      const auto pr = rows.find(asn);
      if (pr == rows.end()) continue;
      for (const auto& [p, route] : pr->second.chosen) table[p] = route;
      for (const auto& [p, v] : pr->second.candidates) {
        auto& dst = cands[p];
        dst.insert(dst.end(), v.begin(), v.end());
      }
    }
    mine.tables[asn] = std::move(table);
    mine.candidates[asn] = std::move(cands);
  }
  result_ = std::move(mine);
  for (const auto& [asn, ab] : admitted_by_) {
    if (ab.shard != self || ab.node == netsim::kInvalidNode) continue;
    const auto it = result_->tables.find(asn);
    static const RoutingTable kEmpty;
    const RoutingTable& table =
        it != result_->tables.end() ? it->second : kEmpty;
    crypto::Bytes advert = encode_route_advertisement(table);
    auto& last = sent_tables_[ab.node];
    if (last == advert) continue;  // unchanged since the last push
    if (is_attested(ab.node)) {
      ctx.send_secure(ab.node, advert);
    } else {
      // Not (re-)attested to this shard yet — hold the table; it flushes
      // from on_peer_attested when the AS's handshake lands.
      ctx.alloc(advert.size());
      pending_tables_[ab.node] = advert;
    }
    last = std::move(advert);
  }
  distribution_current_ = true;
}

// ---------------------------------------------------------------------------
// InterDomainControllerApp: shard-group integration
// ---------------------------------------------------------------------------

bool InterDomainControllerApp::shard_active() const {
  return shard() != nullptr && shard()->active();
}

void InterDomainControllerApp::charge_compute_arena(core::Ctx& ctx,
                                                    size_t bytes) {
  if (bytes <= compute_arena_) return;
  ctx.alloc(bytes - compute_arena_);
  compute_arena_ = bytes;
}

bool InterDomainControllerApp::store_policy(core::Ctx& ctx,
                                            uint32_t admitting_shard,
                                            netsim::NodeId node,
                                            RoutingPolicy policy) {
  // Change detection: floods, replication appends and re-submissions all
  // re-present policies a replica usually already holds — an unchanged
  // store must not invalidate every shard's computed slice.
  const auto existing = policies_.find(policy.asn);
  const auto ab = admitted_by_.find(policy.asn);
  if (existing != policies_.end() && ab != admitted_by_.end() &&
      ab->second.shard == admitting_shard && ab->second.node == node &&
      existing->second.same_encoding(policy)) {
    return false;
  }
  ctx.alloc(retained_size(policy));
  node_to_asn_[node] = policy.asn;
  asn_to_node_[policy.asn] = node;
  admitted_by_[policy.asn] = AdmittedBy{admitting_shard, node};
  policies_[policy.asn] = std::move(policy);
  slice_valid_ = false;  // every shard's slice depends on the full set
  return true;
}

void InterDomainControllerApp::flood_policies(
    core::Ctx& ctx, const std::vector<AsNumber>& asns) {
  if (!shard_active()) return;
  crypto::Bytes inner;
  inner.push_back(kAggPolicy);
  uint32_t count = 0;
  crypto::Bytes body;
  for (const AsNumber asn : asns) {
    const auto ab = admitted_by_.find(asn);
    const auto policy = policies_.find(asn);
    if (ab == admitted_by_.end() || policy == policies_.end()) continue;
    crypto::append_u32(body, ab->second.shard);
    crypto::append_u32(body, ab->second.node);
    crypto::append_lv(body, policy->second.serialize());
    ++count;
  }
  if (count == 0) return;
  crypto::append_u32(inner, count);
  inner.insert(inner.end(), body.begin(), body.end());
  shard()->send_app(ctx, core::kShardBroadcast, inner);
}

bool InterDomainControllerApp::is_shard_member_node(
    netsim::NodeId node) const {
  if (shard() == nullptr) return false;
  for (const core::ShardMember& m : shard()->members()) {
    if (m.node == node) return true;
  }
  return false;
}

void InterDomainControllerApp::maybe_flush_floods(core::Ctx& ctx) {
  if (pending_flood_.empty()) return;
  if (policies_.size() < expected_ases_) {
    // Hold the batch until every AS that attested to this shard has
    // submitted — each client that finished its handshake will send its
    // policy, so the batch is only ever waiting on traffic already in
    // flight (no timer, no host signal). A straggler's own admission
    // re-evaluates this, so late attachers cannot strand the batch.
    for (const netsim::NodeId client : attested_clients_) {
      if (node_to_asn_.find(client) == node_to_asn_.end()) return;
    }
  }
  std::vector<AsNumber> batch;
  batch.swap(pending_flood_);
  flood_policies(ctx, batch);
}

void InterDomainControllerApp::configure_shard(core::Ctx& ctx,
                                               core::ShardConfig cfg) {
  core::ShardReplica::Hooks hooks;
  hooks.apply = [this](core::Ctx& c, uint32_t origin, uint64_t key,
                       crypto::BytesView entry) {
    shard_apply(c, origin, key, entry);
  };
  hooks.snapshot = [this](core::Ctx& c) { return shard_snapshot(c); };
  hooks.install = [this](core::Ctx& c, crypto::BytesView state) {
    return shard_install(c, state);
  };
  hooks.app_message = [this](core::Ctx& c, uint32_t from,
                             crypto::BytesView inner) {
    shard_app(c, from, inner);
  };
  hooks.shard_down = [this](core::Ctx& c, uint32_t s) { on_shard_down(c, s); };
  hooks.shard_up = [this](core::Ctx& c, uint32_t s) { on_shard_up(c, s); };
  enable_sharding(ctx, std::move(cfg), std::move(hooks));
  if (shard_active()) {
    // Pre-attest the full member mesh: partial exchange rides direct
    // channels, and a lazy handshake would otherwise land in the middle
    // of the first computation round (and on the heal critical path).
    for (const core::ShardMember& m : shard()->members()) {
      if (m.shard != shard()->self_shard() && !is_attested(m.node)) {
        ctx.connect(m.node);
      }
    }
  }
  // A healed replica is re-configured with its restored policy set already
  // in place; kick the slice machinery so it re-enters the exchange.
  maybe_compute(ctx);
}

void InterDomainControllerApp::on_shard_down(core::Ctx& ctx,
                                             uint32_t shard_id) {
  // The dead member's rows are void and the compute partition is derived
  // from the live set — drop the stale partial and recompute our (now
  // larger) slice.
  partials_.erase(shard_id);
  distribution_current_ = false;
  slice_valid_ = false;
  reforward_admitted(ctx);
}

void InterDomainControllerApp::on_shard_up(core::Ctx& ctx,
                                           uint32_t shard_id) {
  // The live set grew: the partition shifts, and the rejoined replica
  // (which lost every partial) gets fresh rows from the recompute's
  // send_partials.
  (void)shard_id;
  slice_valid_ = false;
  reforward_admitted(ctx);
}

void InterDomainControllerApp::shard_apply(core::Ctx& ctx, uint32_t origin,
                                           uint64_t key,
                                           crypto::BytesView entry) {
  try {
    crypto::Reader r(entry);
    const netsim::NodeId node = r.u32();
    RoutingPolicy policy = RoutingPolicy::deserialize(r.lv());
    if (policy.asn != key) return;  // entry/key mismatch: refuse
    store_policy(ctx, origin, node, std::move(policy));
  } catch (const std::exception&) {
    return;
  }
}

crypto::Bytes InterDomainControllerApp::shard_snapshot(core::Ctx&) {
  crypto::Bytes state;
  crypto::append_u32(state, static_cast<uint32_t>(policies_.size()));
  for (const auto& [asn, policy] : policies_) {
    const auto node = asn_to_node_.find(asn);
    const auto ab = admitted_by_.find(asn);
    crypto::append_u32(state, node != asn_to_node_.end()
                                  ? node->second
                                  : netsim::kInvalidNode);
    crypto::append_u32(state,
                       ab != admitted_by_.end() ? ab->second.shard : 0);
    crypto::append_lv(state, policy.serialize());
  }
  return state;
}

bool InterDomainControllerApp::shard_install(core::Ctx& ctx,
                                             crypto::BytesView state) {
  // Merge, don't replace: the donor only observed its slice of origins
  // (ring replication), so clobbering local maps would drop policies the
  // donor never saw. Parse everything before touching state so a
  // malformed snapshot changes nothing.
  struct Parsed {
    netsim::NodeId node;
    uint32_t admitting_shard;
    RoutingPolicy policy;
  };
  std::vector<Parsed> parsed;
  try {
    crypto::Reader r(state);
    const uint32_t n = r.u32();
    parsed.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      const netsim::NodeId node = r.u32();
      const uint32_t admitting_shard = r.u32();
      RoutingPolicy policy = RoutingPolicy::deserialize(r.lv());
      parsed.push_back(Parsed{node, admitting_shard, std::move(policy)});
    }
  } catch (const std::exception&) {
    return false;
  }
  size_t retained = 0;
  for (const Parsed& p : parsed) retained += retained_size(p.policy);
  ctx.alloc(retained);
  for (Parsed& p : parsed) {
    if (p.node != netsim::kInvalidNode) {
      node_to_asn_[p.node] = p.policy.asn;
      asn_to_node_[p.policy.asn] = p.node;
    }
    admitted_by_[p.policy.asn] = AdmittedBy{p.admitting_shard, p.node};
    policies_[p.policy.asn] = std::move(p.policy);
  }
  // The merged picture may shift our slice; recompute through the slice
  // machinery (sends go only to member shards — safe before any AS has
  // re-attested).
  slice_valid_ = false;
  if (shard_active()) maybe_compute(ctx);
  return true;
}

void InterDomainControllerApp::shard_app(core::Ctx& ctx, uint32_t from,
                                         crypto::BytesView inner) {
  try {
    crypto::Reader r(inner);
    const auto tag = static_cast<AggMsg>(r.u8());
    if (tag == kAggPolicy) {
      const uint32_t count = r.u32();
      for (uint32_t i = 0; i < count; ++i) {
        const uint32_t admitting_shard = r.u32();
        const netsim::NodeId node = r.u32();
        RoutingPolicy policy = RoutingPolicy::deserialize(r.lv());
        store_policy(ctx, admitting_shard, node, std::move(policy));
      }
      // One compute per batch: a 16-policy flood invalidates the slice
      // once, not sixteen times.
      maybe_compute(ctx);
      return;
    }
    if (tag == kAggPartial) {
      const uint32_t sender = r.u32();
      const uint32_t n = r.u32();
      std::map<AsNumber, PartialRows> rows;
      for (uint32_t i = 0; i < n; ++i) {
        const AsNumber asn = r.u32();
        PartialRows pr;
        const uint32_t n_rows = r.u32();
        for (uint32_t j = 0; j < n_rows; ++j) {
          Route route = Route::deserialize(r.lv());
          pr.chosen[route.prefix] = std::move(route);
        }
        const uint32_t n_cands = r.u32();
        for (uint32_t j = 0; j < n_cands; ++j) {
          Route route = Route::deserialize(r.lv());
          pr.candidates[route.prefix].push_back(std::move(route));
        }
        rows[asn] = std::move(pr);
      }
      ctx.alloc(inner.size());
      partials_[sender] = std::move(rows);
      distribution_current_ = false;
      maybe_compute(ctx);
      return;
    }
  } catch (const std::exception&) {
    return;
  }
  (void)from;
}

void InterDomainControllerApp::reforward_admitted(core::Ctx& ctx) {
  if (!shard_active() || !shard()->serving()) return;
  // The failover span covers the whole adoption: relabeling, the adoption
  // broadcast, and the recompute kick — tools/analyze.py surfaces it as
  // its own phase so heal latency is attributable, not "compute".
  TENET_SPAN("failover", "reforward_admitted");
  TENET_SPAN_SHARD(shard()->self_shard());
  const uint32_t self = shard()->self_shard();
  std::vector<AsNumber> adopted;
  std::map<uint32_t, uint64_t> adopted_from;  // dead shard -> entries taken
  bool changed = false;
  for (auto& [asn, ab] : admitted_by_) {
    if (shard()->is_reachable(ab.shard)) continue;
    const uint32_t dead = ab.shard;
    // Deterministic adoption: the dead shard's ASes move to its first
    // reachable ring successor — the same fallback rule the untrusted
    // router applies, so every survivor re-assigns identically (the slice
    // partition stays a partition) and the AS re-points exactly where its
    // table will be computed. Terminates: self is always reachable.
    uint32_t adopter = shard()->map().successor(ab.shard);
    while (adopter != ab.shard && !shard()->is_reachable(adopter)) {
      adopter = shard()->map().successor(adopter);
    }
    ab.shard = adopter;
    changed = true;
    // The adopter owns the re-announcement; everyone else just relabels.
    if (adopter == self) {
      adopted.push_back(asn);
      ++adopted_from[dead];
    }
  }
  // Read only by TENET_EVENT, which telemetry-off builds compile out.
  for ([[maybe_unused]] const auto& [dead, n] : adopted_from) {
    // node = adopting shard, a = the dead shard, b = admissions adopted.
    TENET_EVENT(kFailoverAdopted, self, dead, n);
  }
  flood_policies(ctx, adopted);  // one broadcast for the whole adoption
  if (changed) slice_valid_ = false;
  maybe_compute(ctx);
}

void InterDomainControllerApp::on_peer_attested(core::Ctx& ctx,
                                                netsim::NodeId peer) {
  if (!is_shard_member_node(peer)) attested_clients_.insert(peer);
  const auto it = pending_tables_.find(peer);
  if (it == pending_tables_.end()) return;
  ctx.send_secure(peer, it->second);
  pending_tables_.erase(it);
}

void InterDomainControllerApp::handle_register(core::Ctx& ctx,
                                               netsim::NodeId peer,
                                               crypto::BytesView body) {
  TENET_COUNT("app.routing.predicate_registrations");
  const auto asn = asn_of(peer);
  if (!asn.has_value()) return;
  crypto::Reader r(body);
  uint32_t pred_id = 0;
  Predicate predicate = Predicate::path_length_at_most(0, 0, 0);
  try {
    pred_id = r.u32();
    predicate = Predicate::deserialize(r.lv());
  } catch (const std::exception&) {
    return;
  }
  // Only the ASes named by the predicate may participate in it.
  const std::vector<AsNumber> parties = predicate.parties();
  if (std::find(parties.begin(), parties.end(), *asn) == parties.end()) {
    return;
  }
  auto it = predicates_.find(pred_id);
  if (it == predicates_.end()) {
    ctx.alloc(128);
    predicates_.emplace(pred_id, Registration{std::move(predicate), {*asn}});
    return;
  }
  // Second party must register a structurally identical predicate — that
  // is the "agreed upon by the two ASes" condition.
  if (!it->second.predicate.equals(predicate)) return;
  it->second.registered_by.insert(*asn);
}

void InterDomainControllerApp::handle_verify(core::Ctx& ctx,
                                             netsim::NodeId peer,
                                             crypto::BytesView body) {
  TENET_COUNT("app.routing.verify_requests");
  const auto asn = asn_of(peer);
  if (!asn.has_value()) return;
  uint32_t pred_id = 0;
  try {
    pred_id = crypto::read_u32(body, 0);
  } catch (const std::exception&) {
    return;
  }
  auto respond = [&](VerifyStatus status) {
    ctx.send_secure(peer, encode_verify_response(pred_id, status));
  };

  const auto it = predicates_.find(pred_id);
  if (it == predicates_.end()) return respond(VerifyStatus::kNotAgreed);
  const Registration& reg = it->second;

  const std::vector<AsNumber> parties = reg.predicate.parties();
  if (std::find(parties.begin(), parties.end(), *asn) == parties.end()) {
    return respond(VerifyStatus::kNotAParty);
  }
  // Every named party must have countersigned (registered) the predicate.
  for (const AsNumber p : parties) {
    if (!reg.registered_by.contains(p)) return respond(VerifyStatus::kNotAgreed);
  }
  if (!result_.has_value()) return respond(VerifyStatus::kNotReady);
  respond(reg.predicate.evaluate(*result_) ? VerifyStatus::kHolds
                                           : VerifyStatus::kViolated);
}

crypto::Bytes InterDomainControllerApp::on_checkpoint(core::Ctx&) {
  // Predicates and the computed result are deliberately excluded: the
  // result is recomputed from the policies, and predicates must be
  // re-agreed by their parties after a restart (conservative choice).
  crypto::Bytes state;
  crypto::append_u32(state, static_cast<uint32_t>(policies_.size()));
  for (const auto& [asn, policy] : policies_) {
    const auto node = asn_to_node_.find(asn);
    crypto::append_u32(state,
                       node != asn_to_node_.end() ? node->second
                                                  : netsim::kInvalidNode);
    crypto::append_lv(state, policy.serialize());
  }
  // Trailing flag: was this controller part of an active shard group? A
  // restored shard must NOT run the whole fixpoint at restore time (its
  // slice machinery recomputes after re-configuration) — that full
  // compute is exactly the cost sharding removes from the heal path.
  state.push_back(shard_active() ? 1 : 0);
  return state;
}

void InterDomainControllerApp::on_restore(core::Ctx& ctx,
                                          crypto::BytesView state) {
  bool was_sharded = false;
  try {
    crypto::Reader r(state);
    const uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
      const netsim::NodeId node = r.u32();
      RoutingPolicy policy = RoutingPolicy::deserialize(r.lv());
      if (node != netsim::kInvalidNode) {
        node_to_asn_[node] = policy.asn;
        asn_to_node_[policy.asn] = node;
      }
      ctx.alloc(retained_size(policy));
      policies_[policy.asn] = std::move(policy);
    }
    was_sharded = r.remaining() >= 1 && r.u8() != 0;
  } catch (const std::exception&) {
    return;  // partial restore: remaining policies arrive by re-submission
  }
  // Unsharded: recompute locally so verification answers again, but do
  // NOT push advertisements — the restarted enclave has no attested
  // channels yet; each AS re-submits after re-attesting and that triggers
  // a fresh (authenticated) distribution. Sharded: skip the full
  // fixpoint entirely — the slice machinery recomputes this shard's part
  // after the host re-issues the shard config.
  if (!was_sharded && policies_.size() >= expected_ases_) {
    result_ = BgpComputation::compute(policies_);
  }
}

std::optional<AsNumber> InterDomainControllerApp::asn_of(
    netsim::NodeId peer) const {
  const auto it = node_to_asn_.find(peer);
  if (it == node_to_asn_.end()) return std::nullopt;
  return it->second;
}

crypto::Bytes InterDomainControllerApp::on_control(core::Ctx& ctx,
                                                   uint32_t subfn,
                                                   crypto::BytesView arg) {
  crypto::Bytes out;
  switch (subfn) {
    case kCtlPoliciesReceived:
      crypto::append_u64(out, policies_.size());
      return out;
    case kCtlConfigureShard: {
      configure_shard(ctx, core::ShardConfig::deserialize(arg));
      return out;
    }
    case kCtlBeginShardJoin:
      if (shard() != nullptr) shard()->begin_join(ctx);
      return out;
    case kCtlShardReachable: {
      if (shard() != nullptr && arg.size() >= 5) {
        shard()->set_reachable(ctx, crypto::read_u32(arg, 0), arg[4] != 0);
      }
      return out;
    }
    default:
      return out;
  }
}

// ---------------------------------------------------------------------------
// AsLocalControllerApp
// ---------------------------------------------------------------------------

AsLocalControllerApp::AsLocalControllerApp(const sgx::Authority& authority,
                                           sgx::AttestationConfig config,
                                           RoutingPolicy policy)
    : SecureApp(authority, config), policy_(std::move(policy)) {}

void AsLocalControllerApp::on_secure_message(core::Ctx& ctx, netsim::NodeId peer,
                                             crypto::BytesView payload) {
  if (peer != controller_) return;  // only the attested controller talks to us
  switch (message_type(payload)) {
    case MsgType::kRouteAdvertisement: {
      RoutingTable table;
      try {
        table = decode_routing_table(message_body(payload));
      } catch (const std::exception&) {
        return;
      }
      ctx.alloc(retained_size(table));
      charge_route_install(table);
      routes_ = std::move(table);
      has_routes_ = true;
      return;
    }
    case MsgType::kVerifyResponse: {
      const crypto::BytesView body = message_body(payload);
      last_verdict_.assign(body.begin(), body.end());
      return;
    }
    default:
      return;
  }
}

void AsLocalControllerApp::on_peer_attested(core::Ctx& ctx,
                                            netsim::NodeId peer) {
  // First attestation: the host drives submission via kCtlSubmitPolicy, so
  // submitted_ is still false here and nothing is sent. Re-attestation
  // after a controller restart (or a fault-window re-handshake): release
  // the policy again so the controller regains the full set.
  if (peer == controller_ && submitted_) {
    charge_policy_preparation(policy_);
    ctx.send_secure(peer, encode_policy_submission(policy_));
  }
}

crypto::Bytes AsLocalControllerApp::on_control(core::Ctx& ctx, uint32_t subfn,
                                               crypto::BytesView arg) {
  switch (subfn) {
    case kCtlConnectController:
      controller_ = crypto::read_u32(arg, 0);
      ctx.connect(controller_);
      return {};
    case kCtlSubmitPolicy: {
      TENET_TRACE_ROOT("routing", "submit_policy");
      // The policy leaves the enclave ONLY through the attested channel.
      charge_policy_preparation(policy_);
      submitted_ = true;
      ctx.send_secure(controller_, encode_policy_submission(policy_));
      return {};
    }
    case kCtlUpdateLocalPref: {
      // Operator reconfiguration: adjust this AS's preference for one
      // neighbor. Takes effect at the controller on the next submission.
      crypto::Reader r(arg);
      const AsNumber neighbor = r.u32();
      const uint32_t pref = r.u32();
      if (policy_.neighbor_rel.contains(neighbor)) {
        policy_.local_pref[neighbor] = pref;
      }
      return {};
    }
    case kCtlGetOwnTable:
      return encode_routing_table(routes_);
    case kCtlRegisterPredicate: {
      crypto::Bytes msg(arg.begin(), arg.end());
      crypto::Reader r(arg);
      const uint32_t pred_id = r.u32();
      const Predicate p = Predicate::deserialize(r.lv());
      ctx.send_secure(controller_, encode_register_predicate(pred_id, p));
      return {};
    }
    case kCtlRequestVerify:
      ctx.send_secure(controller_,
                      encode_verify_request(crypto::read_u32(arg, 0)));
      return {};
    case kCtlLastVerdict:
      return last_verdict_;
    case kCtlHasRoutes: {
      crypto::Bytes out;
      out.push_back(has_routes_ ? 1 : 0);
      return out;
    }
    default:
      return {};
  }
}

// ---------------------------------------------------------------------------
// Native baseline
// ---------------------------------------------------------------------------

void NativeInterDomainController::on_message(core::NativeNode& node,
                                             netsim::NodeId src, uint32_t,
                                             crypto::BytesView payload) {
  switch (message_type(payload)) {
    case MsgType::kPolicySubmission: {
      RoutingPolicy policy;
      try {
        policy = RoutingPolicy::deserialize(message_body(payload));
      } catch (const std::exception&) {
        return;
      }
      asn_to_node_[policy.asn] = src;
      policies_[policy.asn] = std::move(policy);
      if (!result_.has_value() && policies_.size() >= expected_ases_) {
        result_ = BgpComputation::compute(policies_);
        for (const auto& [asn, dst] : asn_to_node_) {
          const auto it = result_->tables.find(asn);
          static const RoutingTable kEmpty;
          node.send_app(dst, core::kPortPlain,
                        encode_route_advertisement(
                            it != result_->tables.end() ? it->second : kEmpty));
        }
      }
      return;
    }
    default:
      return;
  }
}

crypto::Bytes NativeInterDomainController::on_control(core::NativeNode&,
                                                      uint32_t subfn,
                                                      crypto::BytesView) {
  crypto::Bytes out;
  if (subfn == kCtlPoliciesReceived) {
    crypto::append_u64(out, policies_.size());
  }
  return out;
}

void NativeAsController::on_message(core::NativeNode&, netsim::NodeId src,
                                    uint32_t, crypto::BytesView payload) {
  if (src != controller_) return;
  if (message_type(payload) == MsgType::kRouteAdvertisement) {
    try {
      RoutingTable table = decode_routing_table(message_body(payload));
      charge_route_install(table);
      routes_ = std::move(table);
      has_routes_ = true;
    } catch (const std::exception&) {
    }
  }
}

crypto::Bytes NativeAsController::on_control(core::NativeNode& node,
                                             uint32_t subfn,
                                             crypto::BytesView arg) {
  switch (subfn) {
    case kCtlConnectController:
      controller_ = crypto::read_u32(arg, 0);
      return {};
    case kCtlSubmitPolicy:
      charge_policy_preparation(policy_);
      node.send_app(controller_, core::kPortPlain,
                    encode_policy_submission(policy_));
      return {};
    case kCtlGetOwnTable:
      return encode_routing_table(routes_);
    case kCtlHasRoutes: {
      crypto::Bytes out;
      out.push_back(has_routes_ ? 1 : 0);
      return out;
    }
    default:
      return {};
  }
}

}  // namespace tenet::routing
