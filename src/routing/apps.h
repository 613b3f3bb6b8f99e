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

  /// Which shard admitted an AS's policy (and the AS's node). The
  /// admitting shard both fronts the AS (distributes its table) and owns
  /// the slice of the BGP fixpoint for the prefixes the AS originates.
  struct AdmittedBy {
    uint32_t shard = 0;
    netsim::NodeId node = netsim::kInvalidNode;
  };

  /// One sender-shard's contribution to one of our fronted ASes: the rows
  /// (and candidate routes) for the prefixes that shard's slice covered.
  struct PartialRows {
    RoutingTable chosen;
    std::map<Prefix, std::vector<Route>> candidates;
  };

  void handle_submission(core::Ctx& ctx, netsim::NodeId peer,
                         crypto::BytesView body);
  void handle_register(core::Ctx& ctx, netsim::NodeId peer,
                       crypto::BytesView body);
  void handle_verify(core::Ctx& ctx, netsim::NodeId peer,
                     crypto::BytesView body);
  void maybe_compute(core::Ctx& ctx);
  [[nodiscard]] std::optional<AsNumber> asn_of(netsim::NodeId peer) const;

  // Shard-group integration (see DESIGN.md §14). No-ops when unsharded.
  //
  // Sharded computation: policies are flooded to every replica (ring
  // broadcast), but the BGP fixpoint is *partitioned* — each shard runs
  // only the per-prefix fixpoints for the ASes it fronts, then exchanges
  // the resulting rows shard-to-shard (kAggPartial, direct channels).
  // A shard distributes a table to a fronted AS once its own slice is
  // computed and every reachable member's partial has arrived. This is
  // what makes controller throughput scale with the shard count: the
  // dominant cost (the fixpoint) divides by N while the flood adds only
  // linear message relay work.
  void configure_shard(core::Ctx& ctx, core::ShardConfig cfg);
  /// Returns true when the stored policy / admitting shard / node binding
  /// actually changed (an unchanged re-store must not invalidate slices).
  bool store_policy(core::Ctx& ctx, uint32_t admitting_shard,
                    netsim::NodeId node, RoutingPolicy policy);
  void shard_apply(core::Ctx& ctx, uint32_t origin, uint64_t key,
                   crypto::BytesView entry);
  [[nodiscard]] crypto::Bytes shard_snapshot(core::Ctx& ctx);
  bool shard_install(core::Ctx& ctx, crypto::BytesView state);
  void shard_app(core::Ctx& ctx, uint32_t from, crypto::BytesView inner);
  /// Broadcasts a batch of admitted policies (each with its admitting
  /// shard) to every other replica — the flood that keeps all policy sets
  /// identical. Batched because the ring relay pays per-message enclave
  /// transitions at every hop: one broadcast carrying a shard's whole
  /// admission set costs ~1/16th of per-policy floods.
  void flood_policies(core::Ctx& ctx, const std::vector<AsNumber>& asns);
  /// Flushes the pending first-admission flood batch once every attested
  /// AS client has submitted (or the policy set is already complete).
  /// Only *first* admissions batch; changes to an existing admission
  /// (policy updates, failover re-admissions) flood immediately — other
  /// shards act on those bindings, so they must not sit in a buffer.
  void maybe_flush_floods(core::Ctx& ctx);
  [[nodiscard]] bool is_shard_member_node(netsim::NodeId node) const;
  /// Recomputes this shard's slice of the fixpoint if invalidated, sends
  /// partial rows to the other members, then tries to distribute.
  void maybe_compute_sharded(core::Ctx& ctx);
  /// Sends our slice's rows for the ASes each member fronts (all members,
  /// or just `only` when targeting a rejoined shard).
  void send_partials(core::Ctx& ctx,
                     uint32_t only = 0xFFFFFFFFu /* kInvalidShard */);
  /// Once every reachable member's partial is in, assembles complete
  /// tables for our fronted ASes and pushes them out.
  void maybe_distribute_sharded(core::Ctx& ctx);
  /// Membership changed: deterministically re-assign ASes fronted by dead
  /// shards (ring-successor fallback — the same rule the untrusted router
  /// applies, so the AS re-points exactly where its slice moved).
  void reforward_admitted(core::Ctx& ctx);
  void on_shard_down(core::Ctx& ctx, uint32_t shard_id);
  void on_shard_up(core::Ctx& ctx, uint32_t shard_id);
  [[nodiscard]] bool shard_active() const;
  /// Charges enclave heap growth for the fixpoint's working set. SGX1 heap
  /// pages are EAUG'd once and the in-enclave allocator reuses the freed
  /// arena on recompute, so only the high-water *increment* adds pages.
  void charge_compute_arena(core::Ctx& ctx, size_t bytes);

  size_t expected_ases_;
  std::map<AsNumber, RoutingPolicy> policies_;
  std::map<netsim::NodeId, AsNumber> node_to_asn_;
  std::map<AsNumber, netsim::NodeId> asn_to_node_;
  std::map<uint32_t, Registration> predicates_;
  std::optional<ComputationResult> result_;
  std::map<AsNumber, AdmittedBy> admitted_by_;
  std::map<netsim::NodeId, crypto::Bytes> pending_tables_;

  size_t compute_arena_ = 0;  // fixpoint working-set high-water (bytes)

  // Sharded-computation state (unused when unsharded).
  std::vector<AsNumber> pending_flood_;  // first admissions not yet flooded
  std::set<netsim::NodeId> attested_clients_;  // non-shard attested peers
  bool slice_valid_ = false;
  std::optional<ComputationResult> slice_;  // fixpoint over our origins
  std::map<uint32_t, std::map<AsNumber, PartialRows>> partials_;
  std::map<netsim::NodeId, crypto::Bytes> sent_tables_;  // de-dup re-sends
  // The last full distribution pass still reflects slice_, partials_ and
  // admitted_by_ (see maybe_distribute_sharded).
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
