#include "routing/apps.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

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

/// Erases prefix `p` from every AS's rows in `by_as`, and ASes left with
/// no row.
template <typename Rows>
void drop_prefix(std::map<AsNumber, Rows>& by_as, Prefix p) {
  for (auto it = by_as.begin(); it != by_as.end();) {
    it->second.erase(p);
    it = it->second.empty() ? by_as.erase(it) : std::next(it);
  }
}

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
  std::optional<RoutingPolicy> policy =
      decode_or_drop(RoutingPolicy::deserialize, body);
  if (!policy) return;
  // One node speaks for one AS; re-submission replaces (policy update).
  const AsNumber asn = policy->asn;
  const auto existing = asn_to_node_.find(asn);
  if (existing != asn_to_node_.end() && existing->second != peer) {
    return;  // another (attested) node already claims this ASN
  }
  const bool first_admission = policies_.find(asn) == policies_.end();
  const bool changed = store_policy(ctx, peer, std::move(*policy));
  if (shard_active()) {
    // The admission is durable once replicated: the ring successor holds a
    // copy before any other shard ever sees it, so a shard death at any
    // point loses nothing that was admitted.
    crypto::Bytes entry;
    append_binding(entry, peer, policies_.at(asn));
    shard()->admit(ctx, asn, entry);
    // Every replica needs every policy: the fixpoint is sharded by origin
    // and each shard computes its slice over the full policy set. First
    // admissions batch into one broadcast (initial fill is bursty and
    // nobody can compute until the set is complete anyway); a change to
    // an existing binding floods immediately — every slice depends on it.
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
  result_ = BgpComputation::compute(policies_);
  charge_compute_arena(ctx, *result_);
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
    fill_slice(ctx);
    send_partials(ctx);
  }
  maybe_distribute_sharded(ctx);
}

std::vector<uint32_t> InterDomainControllerApp::down_members() const {
  std::vector<uint32_t> down;
  for (const core::ShardMember& m : shard()->members()) {
    if (!shard()->is_reachable(m.shard)) down.push_back(m.shard);
  }
  std::sort(down.begin(), down.end());
  return down;
}

std::set<AsNumber> InterDomainControllerApp::dealt_origins() const {
  // The compute partition is deliberately decoupled from fronting:
  // fronting follows the hash-based shard map (front_of), but hashing 96
  // dense keys over 8 buckets leaves the largest bucket ~2× the fair share
  // — and the slowest slice bounds controller throughput. Round-robin over
  // the sorted policy set is perfectly balanced, and every replica derives
  // the same partition (and the same fronts) from state it already shares
  // (the flooded policy set + the host's liveness hints), so no
  // coordination message is needed. The deal is over the configured
  // members, so a kill or a heal moves only the origins of the member
  // whose liveness changed.
  const std::vector<core::ShardMember>& members = shard()->members();
  const size_t n = members.size();
  const uint32_t self = shard()->self_shard();
  std::set<AsNumber> origins;
  size_t i = 0;
  for (const auto& [asn, policy] : policies_) {
    const size_t owner = i % n;
    const size_t k = i / n;
    ++i;
    // Terminates within one lap of the others: self is always reachable.
    size_t holder = owner;
    for (size_t j = 0; !shard()->is_reachable(members[holder].shard); ++j) {
      holder = (owner + 1 + (k + j) % (n - 1)) % n;
    }
    if (members[holder].shard == self) origins.insert(asn);
  }
  return origins;
}

void InterDomainControllerApp::fill_slice(core::Ctx& ctx) {
  const std::set<AsNumber> dealt = dealt_origins();
  // An origin's rows are its prefixes' rows (the fixpoint separates by
  // origin), so giving one up is an erase, not a compute.
  for (const AsNumber origin : slice_origins_) {
    if (dealt.contains(origin)) continue;
    for (const Prefix p : policies_.at(origin).prefixes) {
      drop_prefix(slice_.tables, p);
      drop_prefix(slice_.candidates, p);
    }
  }
  std::set<AsNumber> missing;
  std::set_difference(dealt.begin(), dealt.end(), slice_origins_.begin(),
                      slice_origins_.end(),
                      std::inserter(missing, missing.end()));
  if (!missing.empty()) {
    ComputationResult fresh = BgpComputation::compute(policies_, missing);
    origins_computed_ += missing.size();
    for (auto& [asn, table] : fresh.tables) {
      slice_.tables[asn].merge(table);
    }
    for (auto& [asn, per_prefix] : fresh.candidates) {
      slice_.candidates[asn].merge(per_prefix);
    }
    charge_compute_arena(ctx, slice_);
  }
  slice_origins_ = dealt;
  slice_valid_ = true;
  distribution_current_ = false;
}

uint32_t InterDomainControllerApp::front_of(AsNumber asn) const {
  const core::ShardMap& map = shard()->map();
  uint32_t front = map.owner(asn);
  if (!shard()->serving()) return front;
  // Terminates within one lap: self is always reachable.
  while (!shard()->is_reachable(front)) front = map.successor(front);
  return front;
}

void InterDomainControllerApp::send_partials(core::Ctx& ctx) {
  if (!slice_valid_) return;
  const uint32_t self = shard()->self_shard();
  const std::vector<uint32_t> down = down_members();
  crypto::Bytes inner;
  for (const core::ShardMember& m : shard()->members()) {
    if (m.shard == self || !shard()->is_reachable(m.shard)) continue;
    // Bundle our slice's rows for every AS this member fronts. An empty
    // bundle still goes out: the receiver counts senders, not rows.
    std::vector<AsNumber> fronted;
    for (const auto& [asn, policy] : policies_) {
      if (front_of(asn) == m.shard) fronted.push_back(asn);
    }
    inner.clear();
    append_partial(inner, down, fronted, slice_);
    shard()->send_app_direct(ctx, m.shard, inner);
  }
}

void InterDomainControllerApp::maybe_distribute_sharded(core::Ctx& ctx) {
  if (!slice_valid_) return;
  // A full pass is a function of slice_, partials_, the fronts (front_of:
  // the shard map and the live set), the node bindings and sent_tables_
  // (which only this function writes): while none of them has changed
  // since the last one, it would rebuild and re-encode every fronted table
  // only to find each equal to what was sent. slice_ and partials_ clear
  // the flag where they change; a change of the live set (refront) or of
  // a node binding (store_policy, shard_install) clears slice_valid_, and
  // the refill that follows clears the flag.
  if (distribution_current_) return;
  // Only a complete pass pushes: one partial from every live member, each
  // dealt over this replica's live set, so that with our slice they cover
  // every origin once and every fronted AS. A partial dealt over another
  // live set is a membership change still in flight, and a table built
  // from it would be replaced as soon as the rest arrived.
  const uint32_t self = shard()->self_shard();
  const std::vector<uint32_t> down = down_members();
  for (const core::ShardMember& m : shard()->members()) {
    if (m.shard == self || !shard()->is_reachable(m.shard)) continue;
    const auto p = partials_.find(m.shard);
    if (p == partials_.end() || p->second.down != down) return;
  }
  // Build only what is sent: each bound fronted AS's chosen rows. The
  // candidates stay where they are; handle_verify reads them from there.
  for (const auto& [asn, policy] : policies_) {
    if (front_of(asn) != self) continue;
    const netsim::NodeId node = node_of(asn);
    if (node == netsim::kInvalidNode) continue;
    RoutingTable table;
    merge_rows(asn, table, nullptr);
    crypto::Bytes advert = encode_route_advertisement(table);
    auto& last = sent_tables_[node];
    if (last == advert) continue;  // unchanged since the last push
    if (is_attested(node)) {
      ctx.send_secure(node, advert);
    } else {
      // Not (re-)attested to this shard yet — hold the table; it flushes
      // from on_peer_attested when the AS's handshake lands.
      ctx.alloc(advert.size());
      pending_tables_[node] = advert;
    }
    last = std::move(advert);
  }
  distribution_current_ = true;
}

void InterDomainControllerApp::merge_rows(
    AsNumber asn, RoutingTable& table,
    std::map<Prefix, std::vector<Route>>* cands) const {
  const auto t = slice_.tables.find(asn);
  if (t != slice_.tables.end()) table = t->second;
  if (cands != nullptr) {
    const auto c = slice_.candidates.find(asn);
    if (c != slice_.candidates.end()) *cands = c->second;
  }
  for (const auto& [sender, partial] : partials_) {
    // A down member's rows were dealt to the live ones.
    if (!shard()->is_reachable(sender)) continue;
    const auto pr = partial.rows.find(asn);
    if (pr == partial.rows.end()) continue;
    for (const auto& [p, route] : pr->second.chosen) table[p] = route;
    if (cands == nullptr) continue;
    for (const auto& [p, v] : pr->second.candidates) {
      auto& dst = (*cands)[p];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
}

// ---------------------------------------------------------------------------
// InterDomainControllerApp: shard-group integration
// ---------------------------------------------------------------------------

bool InterDomainControllerApp::shard_active() const {
  return shard() != nullptr && shard()->active();
}

void InterDomainControllerApp::charge_compute_arena(
    core::Ctx& ctx, const ComputationResult& result) {
  // The computation's transient allocations (candidate Route objects,
  // path vectors) hit the enclave heap — "dynamic memory allocation that
  // causes context switches" is exactly where Table 4 says the overhead
  // comes from. Natively the same allocations are near-free.
  size_t bytes = 0;
  for (const auto& [asn, table] : result.tables) bytes += retained_size(table);
  for (const auto& [asn, per_prefix] : result.candidates) {
    for (const auto& [p, v] : per_prefix) bytes += v.size() * 1'792;
  }
  if (bytes <= compute_arena_) return;
  ctx.alloc(bytes - compute_arena_);
  compute_arena_ = bytes;
}

bool InterDomainControllerApp::holds(netsim::NodeId node,
                                     const RoutingPolicy& policy) const {
  const auto existing = policies_.find(policy.asn);
  return existing != policies_.end() && node_of(policy.asn) == node &&
         existing->second.same_encoding(policy);
}

bool InterDomainControllerApp::store_policy(core::Ctx& ctx,
                                            netsim::NodeId node,
                                            RoutingPolicy policy) {
  // Change detection: floods, replication appends and re-submissions all
  // re-present policies a replica usually already holds — an unchanged
  // store must not invalidate every shard's computed slice.
  if (holds(node, policy)) return false;
  ctx.alloc(retained_size(policy));
  bind(PolicyBinding{node, std::move(policy)});
  invalidate_slice();
  return true;
}

void InterDomainControllerApp::invalidate_slice() {
  slice_ = {};
  slice_origins_.clear();
  slice_valid_ = false;
}

void InterDomainControllerApp::bind(PolicyBinding b) {
  if (b.node != netsim::kInvalidNode) {
    node_to_asn_[b.node] = b.policy.asn;
    asn_to_node_[b.policy.asn] = b.node;
  }
  policies_[b.policy.asn] = std::move(b.policy);
}

void InterDomainControllerApp::flood_policies(
    core::Ctx& ctx, const std::vector<AsNumber>& asns) {
  if (!shard_active()) return;
  // Every flooded ASN was stored first, and policies_ never shrinks.
  std::vector<BindingRef> batch;
  for (const AsNumber asn : asns) {
    batch.push_back({node_of(asn), policies_.at(asn)});
  }
  if (batch.empty()) return;
  shard()->broadcast_app(ctx, encode_policy_flood(batch));
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
  hooks.apply = [this](core::Ctx& c, uint32_t, uint64_t key,
                       crypto::BytesView entry) { shard_apply(c, key, entry); };
  hooks.snapshot = [this](core::Ctx&) { return encode_bindings(bindings()); };
  hooks.install = [this](core::Ctx& c, crypto::BytesView state) {
    return shard_install(c, state);
  };
  hooks.app_message = [this](core::Ctx& c, uint32_t from, bool direct,
                             crypto::BytesView inner) {
    shard_app(c, from, direct, inner);
  };
  hooks.shard_down = [this](core::Ctx& c, uint32_t s) { on_shard_down(c, s); };
  hooks.shard_up = [this](core::Ctx& c, uint32_t) { on_shard_up(c); };
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

void InterDomainControllerApp::on_shard_down(core::Ctx& ctx, uint32_t dead) {
  // The dead member's rows are void.
  partials_.erase(dead);
  distribution_current_ = false;
  refront(ctx, dead);
}

void InterDomainControllerApp::on_shard_up(core::Ctx& ctx) {
  // The rejoined replica lost every partial; it gets fresh rows from the
  // refill's send_partials.
  refront(ctx, core::kInvalidShard);
}

void InterDomainControllerApp::refront(core::Ctx& ctx, uint32_t dead) {
  slice_valid_ = false;  // the compute partition follows the live set
  if (!shard_active()) return;
  // The failover span covers the adoption count and the refill kick —
  // tools/analyze.py surfaces it as its own phase so heal latency is
  // attributable, not "compute". A replica that is not serving still
  // refills: its deal covers the same origins, whoever fronts them.
  TENET_SPAN("failover", "refront");
  TENET_SPAN_SHARD(shard()->self_shard());
  if (dead != core::kInvalidShard && shard()->serving()) {
    // An AS is one of the dead shard's that this shard now fronts when the
    // successor walk from its owner to here passes the dead shard. Read
    // only by TENET_EVENT, which telemetry-off builds compile out.
    const uint32_t self = shard()->self_shard();
    const core::ShardMap& map = shard()->map();
    [[maybe_unused]] uint64_t adopted = 0;
    for (const auto& [asn, policy] : policies_) {
      if (front_of(asn) != self) continue;
      for (uint32_t s = map.owner(asn); s != self; s = map.successor(s)) {
        if (s == dead) {
          ++adopted;
          break;
        }
      }
    }
    // node = adopting shard, a = the dead shard, b = ASes adopted.
    if (adopted > 0) TENET_EVENT(kFailoverAdopted, self, dead, adopted);
  }
  maybe_compute(ctx);
}

void InterDomainControllerApp::shard_apply(core::Ctx& ctx, uint64_t key,
                                           crypto::BytesView entry) {
  std::optional<PolicyBinding> b = decode_or_drop(decode_binding, entry);
  if (!b || b->policy.asn != key) return;  // entry/key mismatch: refuse
  store_policy(ctx, b->node, std::move(b->policy));
}

std::vector<BindingRef> InterDomainControllerApp::bindings() const {
  std::vector<BindingRef> out;
  for (const auto& [asn, policy] : policies_) {
    out.push_back({node_of(asn), policy});
  }
  return out;
}

bool InterDomainControllerApp::shard_install(core::Ctx& ctx,
                                             crypto::BytesView state) {
  // Merge, don't replace: the donor only observed its slice of origins
  // (ring replication), so clobbering local maps would drop policies the
  // donor never saw. Parse everything before touching state so a
  // malformed snapshot changes nothing.
  std::optional<std::vector<PolicyBinding>> parsed =
      decode_or_drop(decode_bindings, state);
  if (!parsed) return false;
  size_t retained = 0;
  bool changed = false;
  for (const PolicyBinding& b : *parsed) {
    retained += retained_size(b.policy);
    changed = changed || !holds(b.node, b.policy);
  }
  ctx.alloc(retained);
  for (PolicyBinding& b : *parsed) bind(std::move(b));
  // A snapshot that changes no binding leaves our slice as computed (a
  // healed replica computed it from its restored checkpoint); one that
  // does refills it through the slice machinery (sends go only to member
  // shards — safe before any AS has re-attested).
  if (changed) invalidate_slice();
  if (shard_active()) maybe_compute(ctx);
  return true;
}

void InterDomainControllerApp::shard_app(core::Ctx& ctx, uint32_t from,
                                         bool direct,
                                         crypto::BytesView inner) {
  try {
    switch (agg_type(inner)) {
      case AggMsg::kPolicy:
        // The whole batch decodes before any entry is stored: a malformed
        // tail leaves the policy set untouched.
        for (PolicyBinding& b : decode_policy_flood(inner)) {
          store_policy(ctx, b.node, std::move(b.policy));
        }
        // One compute per batch: a 16-policy flood invalidates the slice
        // once, not sixteen times.
        maybe_compute(ctx);
        return;
      case AggMsg::kPartial: {
        // Honest partials travel only direct, where `from` is the member
        // the channel authenticated. A broadcast's origin is whatever the
        // member that started it wrote, so one relayed here would fill
        // another member's slot.
        if (!direct) return;
        Partial partial = decode_partial(inner);
        ctx.alloc(inner.size());
        partials_[from] = std::move(partial);
        distribution_current_ = false;
        maybe_compute(ctx);
        return;
      }
    }
  } catch (const std::exception&) {
    return;
  }
}

void InterDomainControllerApp::on_peer_attested(core::Ctx& ctx,
                                                netsim::NodeId peer) {
  if (shard() == nullptr ||
      shard()->map().shard_of(peer) == core::kInvalidShard) {
    attested_clients_.insert(peer);  // not a shard member: an AS client
  }
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
  std::optional<PredicateRegistration> reg =
      decode_or_drop(decode_register_predicate, body);
  if (!reg) return;
  // Only the ASes named by the predicate may participate in it.
  const std::vector<AsNumber> parties = reg->predicate.parties();
  if (std::find(parties.begin(), parties.end(), *asn) == parties.end()) {
    return;
  }
  auto it = predicates_.find(reg->pred_id);
  if (it == predicates_.end()) {
    ctx.alloc(128);
    predicates_.emplace(reg->pred_id,
                        Registration{std::move(reg->predicate), {*asn}});
    return;
  }
  // Second party must register a structurally identical predicate — that
  // is the "agreed upon by the two ASes" condition.
  if (!it->second.predicate.equals(reg->predicate)) return;
  it->second.registered_by.insert(*asn);
}

void InterDomainControllerApp::handle_verify(core::Ctx& ctx,
                                             netsim::NodeId peer,
                                             crypto::BytesView body) {
  TENET_COUNT("app.routing.verify_requests");
  const auto asn = asn_of(peer);
  if (!asn.has_value()) return;
  const std::optional<uint32_t> pred_id =
      decode_or_drop(decode_verify_request, body);
  if (!pred_id) return;
  auto respond = [&](VerifyStatus status) {
    ctx.send_secure(peer, encode_verify_response(*pred_id, status));
  };

  const auto it = predicates_.find(*pred_id);
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
  auto answer = [&](const ComputationResult& state) {
    respond(reg.predicate.evaluate(state) ? VerifyStatus::kHolds
                                          : VerifyStatus::kViolated);
  };
  if (!shard_active()) {
    if (!result_.has_value()) return respond(VerifyStatus::kNotReady);
    return answer(*result_);
  }
  // Sharded: answer from exactly the inputs of the last complete pass, and
  // not while a pass is pending. A predicate reads only its parties' rows,
  // so the view holds just the parties this shard fronts.
  if (!slice_valid_ || !distribution_current_) {
    return respond(VerifyStatus::kNotReady);
  }
  ComputationResult view;
  const uint32_t self = shard()->self_shard();
  for (const AsNumber p : parties) {
    if (!policies_.contains(p) || front_of(p) != self) continue;
    merge_rows(p, view.tables[p], &view.candidates[p]);
  }
  answer(view);
}

crypto::Bytes InterDomainControllerApp::on_checkpoint(core::Ctx&) {
  // Predicates and the computed result are deliberately excluded: the
  // result is recomputed from the policies, and predicates must be
  // re-agreed by their parties after a restart (conservative choice).
  // The flag says whether this controller was part of an active shard
  // group. A restored shard must NOT run the whole fixpoint at restore
  // time (its slice machinery recomputes after re-configuration) — that
  // full compute is exactly the cost sharding removes from the heal path.
  return encode_checkpoint(bindings(), shard_active());
}

void InterDomainControllerApp::on_restore(core::Ctx& ctx,
                                          crypto::BytesView state) {
  std::optional<Checkpoint> checkpoint =
      decode_or_drop(decode_checkpoint, state);
  // Nothing restored: the policies arrive by re-submission.
  if (!checkpoint) return;
  for (PolicyBinding& b : checkpoint->bindings) {
    ctx.alloc(retained_size(b.policy));
    bind(std::move(b));
  }
  // Unsharded: recompute locally so verification answers again, but do
  // NOT push advertisements — the restarted enclave has no attested
  // channels yet; each AS re-submits after re-attesting and that triggers
  // a fresh (authenticated) distribution. Sharded: skip the full
  // fixpoint entirely — the slice machinery recomputes this shard's part
  // after the host re-issues the shard config.
  if (!checkpoint->was_sharded && policies_.size() >= expected_ases_) {
    result_ = BgpComputation::compute(policies_);
  }
}

std::optional<AsNumber> InterDomainControllerApp::asn_of(
    netsim::NodeId peer) const {
  const auto it = node_to_asn_.find(peer);
  if (it == node_to_asn_.end()) return std::nullopt;
  return it->second;
}

netsim::NodeId InterDomainControllerApp::node_of(AsNumber asn) const {
  const auto it = asn_to_node_.find(asn);
  return it != asn_to_node_.end() ? it->second : netsim::kInvalidNode;
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
    case kCtlSlice:
      crypto::append_u64(out, origins_computed_);
      crypto::append_u32(out, static_cast<uint32_t>(slice_origins_.size()));
      for (const AsNumber origin : slice_origins_) {
        crypto::append_u32(out, origin);
      }
      return out;
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
      std::optional<RoutingTable> table =
          decode_or_drop(decode_routing_table, message_body(payload));
      if (!table) return;
      ctx.alloc(retained_size(*table));
      charge_route_install(*table);
      routes_ = std::move(*table);
      has_routes_ = true;
      return;
    }
    case MsgType::kVerifyResponse: {
      const crypto::BytesView body = message_body(payload);
      if (!decode_or_drop(decode_verify_response, body)) return;
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
      if (arg.size() != 8) throw std::invalid_argument("kCtlUpdateLocalPref");
      const AsNumber neighbor = crypto::read_u32(arg, 0);
      const uint32_t pref = crypto::read_u32(arg, 4);
      if (policy_.neighbor_rel.contains(neighbor)) {
        policy_.local_pref[neighbor] = pref;
      }
      return {};
    }
    case kCtlGetOwnTable:
      return encode_routing_table(routes_);
    case kCtlRegisterPredicate: {
      const PredicateRegistration reg = decode_register_predicate(arg);
      ctx.send_secure(controller_,
                      encode_register_predicate(reg.pred_id, reg.predicate));
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
  if (message_type(payload) != MsgType::kPolicySubmission) return;
  std::optional<RoutingPolicy> policy =
      decode_or_drop(RoutingPolicy::deserialize, message_body(payload));
  if (!policy) return;
  asn_to_node_[policy->asn] = src;
  policies_[policy->asn] = std::move(*policy);
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
  if (message_type(payload) != MsgType::kRouteAdvertisement) return;
  std::optional<RoutingTable> table =
      decode_or_drop(decode_routing_table, message_body(payload));
  if (!table) return;
  charge_route_install(*table);
  routes_ = std::move(*table);
  has_routes_ = true;
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
