// The two controller roles of Figure 2, in both deployments:
//   * SGX (InterDomainControllerApp / AsLocalControllerApp) — enclave apps
//     over the core framework: mutual attestation, secure channels, policy
//     privacy end-to-end;
//   * native (NativeInterDomainController / NativeAsController) — the
//     paper's "w/o SGX" baseline: identical logic and wire formats,
//     cleartext network, no enclave.
// Both share BgpComputation, so Table 4 measures only the runtime delta.
#pragma once

#include <optional>
#include <set>

#include "core/node.h"
#include "core/secure_app.h"
#include "routing/messages.h"

namespace tenet::routing {

/// Host-side control sub-functions for the AS-local controller.
enum AsControl : uint32_t {
  kCtlConnectController = 1,   // payload: u32 controller node id
  kCtlSubmitPolicy = 2,        // payload: empty (policy was baked in)
  kCtlGetOwnTable = 3,         // -> serialized RoutingTable (operator-only view)
  kCtlRegisterPredicate = 4,   // payload: u32 pred_id | LV predicate
  kCtlRequestVerify = 5,       // payload: u32 pred_id
  kCtlLastVerdict = 6,         // -> u32 pred_id | u8 VerifyStatus (or empty)
  kCtlHasRoutes = 7,           // -> u8 0/1
  kCtlUpdateLocalPref = 8,     // payload: u32 neighbor | u32 new pref
};

/// Host-side control sub-functions for the inter-domain controller.
enum ControllerControl : uint32_t {
  kCtlPoliciesReceived = 1,  // -> u64 count
  kCtlConfigureShard = 4,    // payload: serialized core::ShardConfig
  kCtlBeginShardJoin = 5,    // payload: empty (rejoin after restart)
  kCtlShardReachable = 6,    // payload: u32 shard | u8 up (host liveness hint)
  kCtlSlice = 7,             // -> u64 origins computed | u32 n | n × u32 held
                             //    | u64 partial bytes sent
};

/// Inter-domain controller (enclave). Collects policies from attested
/// AS-local controllers, computes all routes, returns each AS exactly its
/// own table, and answers mutually-agreed verification predicates.
class InterDomainControllerApp final : public core::SecureApp {
 public:
  /// `expected_ases`: compute as soon as this many distinct ASes submit.
  InterDomainControllerApp(const sgx::Authority& authority,
                           sgx::AttestationConfig config,
                           size_t expected_ases);

  /// The partial this replica holds from member `sender`, or null. Trusted
  /// state: no ecall reads it, since its rows carry other ASes' routes.
  [[nodiscard]] const Partial* held_partial(uint32_t sender) const;

 protected:
  void on_secure_message(core::Ctx& ctx, netsim::NodeId peer,
                         crypto::BytesView payload) override;
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override;

  /// Checkpoint = the submitted policy set plus the node↔ASN bindings, so
  /// a restarted controller resumes from the last full picture instead of
  /// waiting for every AS to re-submit from scratch.
  crypto::Bytes on_checkpoint(core::Ctx& ctx) override;
  void on_restore(core::Ctx& ctx, crypto::BytesView state) override;

  /// Sharded deployments: flush route tables held for an AS that attested
  /// (or re-attested after failover) to this shard.
  void on_peer_attested(core::Ctx& ctx, netsim::NodeId peer) override;

 private:
  struct Registration {
    Predicate predicate;
    std::set<AsNumber> registered_by;
  };

  void handle_submission(core::Ctx& ctx, netsim::NodeId peer,
                         crypto::BytesView body);
  void handle_register(core::Ctx& ctx, netsim::NodeId peer,
                       crypto::BytesView body);
  void handle_verify(core::Ctx& ctx, netsim::NodeId peer,
                     crypto::BytesView body);
  void maybe_compute(core::Ctx& ctx);
  [[nodiscard]] std::optional<AsNumber> asn_of(netsim::NodeId peer) const;
  /// The node bound to `asn`, or kInvalidNode when it has no binding.
  [[nodiscard]] netsim::NodeId node_of(AsNumber asn) const;
  /// Stores `b`'s policy and, when it names a node, the node↔ASN binding.
  void bind(PolicyBinding b);

  // Shard-group integration (see DESIGN.md §14). No-ops when unsharded.
  //
  // Sharded computation: policies are flooded to every replica (ring
  // broadcast), but the BGP fixpoint is *partitioned* — each shard runs
  // the per-prefix fixpoints for its share of the origins, then sends each
  // member the resulting rows for the ASes that member fronts
  // (kPartial, direct channels), each partial a delta against the one
  // that member already holds. A shard distributes a table to a fronted
  // AS once its own slice is computed and every reachable member's
  // partial, dealt over the same live set, has arrived. This is what makes
  // controller throughput scale with the shard count: the dominant cost
  // (the fixpoint) divides by N while the flood adds only linear message
  // relay work.
  void configure_shard(core::Ctx& ctx, core::ShardConfig cfg);
  /// True when `policy`, bound to `node`, is exactly what is stored: a
  /// store of it would change nothing.
  [[nodiscard]] bool holds(netsim::NodeId node,
                           const RoutingPolicy& policy) const;
  /// Returns true when the stored policy or node binding actually changed
  /// (an unchanged re-store must not invalidate slices), whichever shard
  /// it came through.
  bool store_policy(core::Ctx& ctx, netsim::NodeId node, RoutingPolicy policy);
  /// A binding changed: every origin's rows depend on the whole policy
  /// set, so the slice is emptied and refilled.
  void invalidate_slice();
  void shard_apply(core::Ctx& ctx, uint64_t key, crypto::BytesView entry);
  /// The whole policy set, each policy with its node: the shard snapshot,
  /// and the checkpoint's body.
  [[nodiscard]] std::vector<BindingRef> bindings() const;
  bool shard_install(core::Ctx& ctx, crypto::BytesView state);
  /// A cross-shard message from member `from`, the origin ShardReplica
  /// passes for the frame; `direct` when the channel authenticated it.
  void shard_app(core::Ctx& ctx, uint32_t from, bool direct,
                 crypto::BytesView inner);
  /// Broadcasts a batch of admitted bindings to every other replica — the
  /// flood that keeps all policy sets identical. Batched because the ring
  /// relay pays per-message enclave transitions at every hop: one
  /// broadcast carrying a shard's whole admission set costs ~1/16th of
  /// per-policy floods.
  void flood_policies(core::Ctx& ctx, const std::vector<AsNumber>& asns);
  /// Flushes the pending first-admission flood batch once every attested
  /// AS client has submitted (or the policy set is already complete).
  /// Only *first* admissions batch; a changed policy or node binding
  /// floods immediately, because every replica's slice depends on it.
  void maybe_flush_floods(core::Ctx& ctx);
  /// Refills this shard's slice of the fixpoint if its deal or a binding
  /// changed, sends partial rows to the other members, then tries to
  /// distribute.
  void maybe_compute_sharded(core::Ctx& ctx);
  /// The configured members this replica believes down, ascending: the
  /// complement of the live set the compute partition is dealt over.
  [[nodiscard]] std::vector<uint32_t> down_members() const;
  /// The origins member `holder` computes over the live set whose down
  /// members are `down` (ascending; `holder` not among them). Origin i, in
  /// ASN order, belongs to configured member i mod N. While that member is
  /// down, the k-th of its origins (k = i / N) goes to the first live
  /// member on its walk through the other members in ring order, starting
  /// k mod (N-1) places after it: one dead member's origins are dealt
  /// round-robin to the survivors, and a change of one member's liveness
  /// moves only origins to or from that member.
  [[nodiscard]] std::set<AsNumber> dealt_origins(
      uint32_t holder, const std::vector<uint32_t>& down) const;
  /// The one slice fill: drops the rows of held origins dealt elsewhere
  /// now, computes the rows of dealt origins not held yet.
  void fill_slice(core::Ctx& ctx);
  /// The shard that fronts `asn` (sends it its table) over the live set
  /// whose down members are `down`: its ShardMap owner, else the first live
  /// shard after it in successor order — the rule ShardRouter::route_shard
  /// applies. Fail-closed: without a live majority nothing is adopted, so
  /// a dead owner's ASes stay unfronted.
  [[nodiscard]] uint32_t front_of(AsNumber asn,
                                  const std::vector<uint32_t>& down) const;
  /// Sends each reachable member (or only `to`) our slice's rows for the
  /// ASes it fronts, leaving out those it holds under the base: the down
  /// list of the last partial we sent it. With no base that is a full
  /// partial.
  void send_partials(core::Ctx& ctx, uint32_t to = core::kInvalidShard);
  /// True when `down` is a live set member `from` can have dealt over:
  /// configured members only, neither `from` nor this replica.
  [[nodiscard]] bool dealable(uint32_t from,
                              const std::vector<uint32_t>& down) const;
  /// The one writer of partials_. A full partial replaces `from`'s; a
  /// delta extends it when it was dealt over the delta's base (rows this
  /// replica no longer fronts and origins no longer dealt to `from` are
  /// pruned, the new rows merged); on any other base `from`'s partial is
  /// dropped and a full one requested. Without a partial, forgets
  /// `from`'s.
  void apply_partial(core::Ctx& ctx, uint32_t from,
                     std::optional<Partial> partial);
  /// Once every reachable member's partial is in, builds the complete
  /// table of each AS we front and pushes the ones that changed.
  void maybe_distribute_sharded(core::Ctx& ctx);
  /// One fronted AS's complete rows: our slice's plus every member's
  /// partial (slices partition the prefix space, so the union is the full
  /// table; merge order is own slice, then senders in shard-id order).
  /// Candidates are gathered only when `cands` is given.
  void merge_rows(AsNumber asn, RoutingTable& table,
                  std::map<Prefix, std::vector<Route>>* cands) const;
  /// Membership changed: the compute partition and every AS's front moved
  /// with the live set, so refill our slice and send each member the rows
  /// that moved to it. On a
  /// kill (`dead` is the dead shard, else kInvalidShard) also report the
  /// dead shard's ASes this shard now fronts.
  void refront(core::Ctx& ctx, uint32_t dead);
  void on_shard_down(core::Ctx& ctx, uint32_t dead);
  void on_shard_up(core::Ctx& ctx);
  [[nodiscard]] bool shard_active() const;
  /// Charges enclave heap growth for a fixpoint's working set (retained
  /// tables plus its candidates). SGX1 heap pages are EAUG'd once and the
  /// in-enclave allocator reuses the freed arena on recompute, so only the
  /// high-water *increment* adds pages.
  void charge_compute_arena(core::Ctx& ctx, const ComputationResult& result);

  size_t expected_ases_;
  std::map<AsNumber, RoutingPolicy> policies_;
  std::map<netsim::NodeId, AsNumber> node_to_asn_;
  std::map<AsNumber, netsim::NodeId> asn_to_node_;
  std::map<uint32_t, Registration> predicates_;
  std::optional<ComputationResult> result_;  // unsharded only
  std::map<netsim::NodeId, crypto::Bytes> pending_tables_;

  size_t compute_arena_ = 0;  // fixpoint working-set high-water (bytes)

  // Sharded-computation state (unused when unsharded).
  std::vector<AsNumber> pending_flood_;  // first admissions not yet flooded
  std::set<netsim::NodeId> attested_clients_;  // non-shard attested peers
  // slice_ holds the rows of exactly slice_origins_ over the current
  // policy set; slice_valid_ says slice_origins_ is also dealt_origins().
  bool slice_valid_ = false;
  ComputationResult slice_;
  std::set<AsNumber> slice_origins_;
  uint64_t origins_computed_ = 0;  // origins the slice fill has computed
  std::map<uint32_t, Partial> partials_;  // held, by sending member
  // Per member, the down list of the last partial sent to it: the base of
  // the next. Absent when the member may hold nothing of ours.
  std::map<uint32_t, std::vector<uint32_t>> partial_bases_;
  uint64_t partial_bytes_sent_ = 0;
  std::map<netsim::NodeId, crypto::Bytes> sent_tables_;  // de-dup re-sends
  // The last full distribution pass still reflects slice_ and partials_
  // (see maybe_distribute_sharded); handle_verify answers from those
  // inputs only while this holds.
  bool distribution_current_ = false;
};

/// AS-local controller (enclave). Keeps its AS's policy private, attests
/// the inter-domain controller before releasing it, receives back only its
/// own routes.
class AsLocalControllerApp final : public core::SecureApp {
 public:
  AsLocalControllerApp(const sgx::Authority& authority,
                       sgx::AttestationConfig config, RoutingPolicy policy);

 protected:
  void on_secure_message(core::Ctx& ctx, netsim::NodeId peer,
                         crypto::BytesView payload) override;
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override;

  /// After a controller restart the re-handshake lands here: if this AS
  /// had already released its policy, release it again so the recovered
  /// controller rebuilds the full set without operator intervention.
  void on_peer_attested(core::Ctx& ctx, netsim::NodeId peer) override;

 private:
  RoutingPolicy policy_;
  netsim::NodeId controller_ = netsim::kInvalidNode;
  RoutingTable routes_;
  bool has_routes_ = false;
  bool submitted_ = false;  // policy released at least once
  crypto::Bytes last_verdict_;  // pred_id | status
};

// ---------------------------------------------------------------------------
// Native baseline (w/o SGX)
// ---------------------------------------------------------------------------

class NativeInterDomainController final : public core::PlainApp {
 public:
  explicit NativeInterDomainController(size_t expected_ases)
      : expected_ases_(expected_ases) {}

  void on_message(core::NativeNode& node, netsim::NodeId src, uint32_t port,
                  crypto::BytesView payload) override;
  crypto::Bytes on_control(core::NativeNode& node, uint32_t subfn,
                           crypto::BytesView payload) override;

 private:
  size_t expected_ases_;
  std::map<AsNumber, RoutingPolicy> policies_;
  std::map<AsNumber, netsim::NodeId> asn_to_node_;
  std::optional<ComputationResult> result_;
};

class NativeAsController final : public core::PlainApp {
 public:
  explicit NativeAsController(RoutingPolicy policy)
      : policy_(std::move(policy)) {}

  void on_message(core::NativeNode& node, netsim::NodeId src, uint32_t port,
                  crypto::BytesView payload) override;
  crypto::Bytes on_control(core::NativeNode& node, uint32_t subfn,
                           crypto::BytesView payload) override;

 private:
  RoutingPolicy policy_;
  netsim::NodeId controller_ = netsim::kInvalidNode;
  RoutingTable routes_;
  bool has_routes_ = false;
};

}  // namespace tenet::routing
