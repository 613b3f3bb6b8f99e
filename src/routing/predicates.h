// Policy verification predicates (§3.1).
//
// "We allow a query to be executed in the verification module inside the
// enclave of the inter-domain controller... The query is a Boolean
// condition that an AS wants to verify concerning the behavior of other
// ASes that it has a business relationship with... The controller ensures
// that only the predicates agreed upon by the two ASes are verified. As a
// result, the verification process does not leak any extra information."
//
// A Predicate is a small boolean AST over the controller's decision state
// (chosen routes + every candidate heard — the SPIDeR-style "verify this
// over all routes that A receives"). Both parties must register an
// identical predicate before the controller will evaluate it, and the only
// output is one boolean.
#pragma once

#include <memory>
#include <vector>

#include "routing/bgp.h"

namespace tenet::routing {

class Predicate {
 public:
  enum class Kind : uint8_t {
    /// B's chosen route for `prefix` goes via A — "is the route announced
    /// by A most preferred by B?" (the paper's running example).
    kMostPreferredVia = 1,
    /// B heard a route for `prefix` from A at all (announcement kept).
    kReceivedFrom = 2,
    /// B's chosen route for `prefix` has AS-path length <= k.
    kPathLengthAtMost = 3,
    /// B's chosen route for `prefix` traverses AS `object` somewhere.
    kRouteTraverses = 4,
    /// B chose a customer-class route for `prefix` (prefer-customer
    /// promise kept).
    kUsesCustomerRoute = 5,
    // Boolean combinators.
    kAnd = 10,
    kOr = 11,
    kNot = 12,
  };

  // Leaf constructors.
  static Predicate most_preferred_via(AsNumber subject_b, AsNumber via_a,
                                      Prefix prefix);
  static Predicate received_from(AsNumber subject_b, AsNumber from_a,
                                 Prefix prefix);
  static Predicate path_length_at_most(AsNumber subject_b, Prefix prefix,
                                       uint32_t k);
  static Predicate route_traverses(AsNumber subject_b, Prefix prefix,
                                   AsNumber through);
  static Predicate uses_customer_route(AsNumber subject_b, Prefix prefix);
  // Combinators.
  static Predicate land(Predicate a, Predicate b);
  static Predicate lor(Predicate a, Predicate b);
  static Predicate lnot(Predicate a);

  [[nodiscard]] Kind kind() const { return kind_; }

  /// Evaluates against a full computation result.
  [[nodiscard]] bool evaluate(const ComputationResult& result) const;

  /// The set of ASes whose (private) routing state this predicate reads —
  /// the controller requires the registering pair to cover this set, so a
  /// predicate cannot probe a third party's decisions.
  [[nodiscard]] std::vector<AsNumber> parties() const;

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Throws std::invalid_argument on an unknown kind, a wrong arity,
  /// trailing bytes or nesting deeper than kMaxDepth.
  static Predicate deserialize(crypto::BytesView wire);
  /// Levels in the deepest predicate deserialize() accepts; a leaf is one
  /// level. The deepest predicate anything in this repository builds is a
  /// combinator over a combinator over a leaf. A host-supplied predicate
  /// is parsed, compared and evaluated recursively inside the controller
  /// enclave, so its depth is bounded by a constant and not by its length.
  static constexpr int kMaxDepth = 3;
  /// Structural equality (used to match the two parties' registrations).
  [[nodiscard]] bool equals(const Predicate& other) const;

 private:
  Predicate() = default;
  /// deserialize() with at most `levels` levels of nesting left.
  static Predicate decode(crypto::BytesView wire, int levels);

  Kind kind_ = Kind::kAnd;
  AsNumber subject_ = 0;
  AsNumber object_ = 0;
  Prefix prefix_ = 0;
  uint32_t k_ = 0;
  std::vector<Predicate> children_;
};

}  // namespace tenet::routing
