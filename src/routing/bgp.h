// BGP-equivalent centralized route computation.
//
// The inter-domain controller "computes routing paths for all ASes using
// the rules of BGP" (§5). This module is pure computation — no I/O, no
// SGX — so the enclave-hosted controller and the native baseline run the
// exact same code (Table 4 compares only the runtime, not the algorithm).
//
// Decision process, per AS per prefix (Gao-Rexford flavoured BGP):
//   1. highest preference: customer routes > peer routes > provider
//      routes, with the AS's per-neighbor local-pref breaking ties within
//      a class;
//   2. shortest AS path;
//   3. lowest next-hop AS number (deterministic tie-break).
// Export rule: routes learned from a customer are announced to everyone;
// routes learned from a peer or provider only to customers (valley-free).
#pragma once

#include <map>
#include <set>
#include <vector>

#include "routing/topology.h"

namespace tenet::routing {

struct Route {
  Prefix prefix = 0;
  /// AS path, next hop first, origin last. Empty for self-originated.
  std::vector<AsNumber> as_path;
  /// Relationship class of the next hop (drives preference and export).
  Relationship learned_from = Relationship::kCustomer;
  uint32_t pref = 0;       // computed import preference
  bool self_originated = false;

  [[nodiscard]] AsNumber next_hop() const {
    return as_path.empty() ? 0 : as_path.front();
  }
  [[nodiscard]] size_t path_length() const { return as_path.size(); }

  [[nodiscard]] crypto::Bytes serialize() const;
  /// serialize().size(), without building it.
  [[nodiscard]] size_t serialized_size() const;
  static Route deserialize(crypto::BytesView wire);
  /// Full decision-process comparison: true if *this beats `other`.
  [[nodiscard]] bool better_than(const Route& other) const;
};

/// Chosen best route per prefix.
using RoutingTable = std::map<Prefix, Route>;

/// The controller's complete decision state: chosen tables plus every
/// candidate each AS considered — the verification module (§3.1) runs
/// predicates "over all routes that A receives".
struct ComputationResult {
  std::map<AsNumber, RoutingTable> tables;
  /// candidates[asn][prefix] = all valid routes asn heard (including the
  /// chosen one), in arrival-independent deterministic order.
  std::map<AsNumber, std::map<Prefix, std::vector<Route>>> candidates;

  [[nodiscard]] const Route* route_of(AsNumber asn, Prefix p) const;
};

class BgpComputation {
 public:
  /// Import preference for a route learned from `rel` with local-pref
  /// `lp` (0..99): relationship class dominates, lp breaks ties.
  static uint32_t import_pref(Relationship rel, uint32_t lp);

  /// Export filter: may a route learned from `learned_from` be announced
  /// to a neighbor of class `to`?
  static bool exportable(Relationship learned_from, Relationship to);

  /// Runs the decision process to a fixpoint. Policies must be mutually
  /// consistent (each link annotated identically from both ends);
  /// inconsistencies throw std::invalid_argument.
  static ComputationResult compute(
      const std::map<AsNumber, RoutingPolicy>& policies);

  /// Slice of the fixpoint restricted to prefixes originated by
  /// `origin_ases`. Per-prefix fixpoints are independent, so the union of
  /// slices over a partition of the origin set equals the full result —
  /// this is what lets a sharded controller divide the computation.
  static ComputationResult compute(
      const std::map<AsNumber, RoutingPolicy>& policies,
      const std::set<AsNumber>& origin_ases);

 private:
  static ComputationResult compute_filtered(
      const std::map<AsNumber, RoutingPolicy>& policies,
      const std::set<AsNumber>* origin_filter);
};

/// Independent oracle (the GNS3 stand-in, DESIGN.md §2): a *distributed*
/// BGP speaker simulation — every AS keeps per-neighbor Adj-RIB-Ins and
/// exchanges update messages until quiescent. Gao-Rexford-consistent
/// policies have a unique stable solution, so this must agree with the
/// centralized fixpoint; the two implementations share only the decision/
/// export predicates.
class ReferenceBgp {
 public:
  static std::map<AsNumber, RoutingTable> compute(
      const std::map<AsNumber, RoutingPolicy>& policies);

  /// Stability invariants any correct result must satisfy; throws
  /// std::logic_error naming the first violation. Checks: paths exist in
  /// the policy graph, are loop-free and valley-free, next hops are
  /// consistent (u's path through v extends v's chosen path), and no AS
  /// prefers a route its neighbors actually offer over its chosen one.
  static void check_stable(const std::map<AsNumber, RoutingPolicy>& policies,
                           const std::map<AsNumber, RoutingTable>& tables);
};

}  // namespace tenet::routing
