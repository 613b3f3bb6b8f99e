// AS-level topology with business relationships.
//
// §5: "we create a random topology with 30 ASes with hypothetical business
// relationships. We model export rules according to their business
// relationship (i.e., peer, customer, and provider) and assume each AS has
// a local preference."
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/rng.h"

namespace tenet::routing {

using AsNumber = uint32_t;
/// Simplified address block identifier; by convention AS n originates
/// prefix n (one prefix per AS unless a policy says otherwise).
using Prefix = uint32_t;

/// The neighbor's role from the perspective of the AS holding the entry:
/// kCustomer = "this neighbor pays me", kProvider = "I pay this neighbor".
enum class Relationship : uint8_t { kCustomer = 0, kPeer = 1, kProvider = 2 };

const char* to_string(Relationship r);
/// The same edge seen from the other side.
Relationship inverse(Relationship r);
/// Decodes a relationship byte; throws std::invalid_argument on any value
/// outside the three relationships.
Relationship relationship_from_wire(uint8_t byte);

/// Undirected business-annotated AS graph.
class AsGraph {
 public:
  void add_as(AsNumber asn);
  /// Adds a link where `customer` buys transit from `provider`.
  void add_customer_provider(AsNumber customer, AsNumber provider);
  /// Adds a settlement-free peering link.
  void add_peering(AsNumber a, AsNumber b);

  [[nodiscard]] bool has_as(AsNumber asn) const;
  [[nodiscard]] bool has_link(AsNumber a, AsNumber b) const;
  /// Relationship of `neighbor` from `asn`'s perspective; nullopt if no link.
  [[nodiscard]] std::optional<Relationship> relationship(
      AsNumber asn, AsNumber neighbor) const;

  [[nodiscard]] std::vector<AsNumber> ases() const;
  [[nodiscard]] std::vector<std::pair<AsNumber, Relationship>> neighbors(
      AsNumber asn) const;
  [[nodiscard]] size_t as_count() const { return adj_.size(); }
  [[nodiscard]] size_t link_count() const;
  [[nodiscard]] bool connected() const;

  /// Generates a three-tier Internet-like topology: a clique of tier-1
  /// providers, mid-tier transit ASes multihomed to tier-1s (with some
  /// lateral peering), and stub ASes buying from the mid tier. Always
  /// connected; AS numbers are 1..n.
  static AsGraph random(crypto::Drbg& rng, size_t n_ases,
                        double extra_peering_prob = 0.15);

 private:
  void add_link(AsNumber a, Relationship rel_of_b_from_a, AsNumber b);
  std::map<AsNumber, std::map<AsNumber, Relationship>> adj_;
};

/// One AS's private routing inputs — exactly what the paper says must not
/// leave the enclave ("ISPs do not want to disclose their routing
/// policies", §1).
struct RoutingPolicy {
  AsNumber asn = 0;
  /// Business relationship with each neighbor (from this AS's view).
  std::map<AsNumber, Relationship> neighbor_rel;
  /// Local preference tweak per neighbor (added within the relationship
  /// class; relationship classes still dominate, Gao-Rexford style).
  std::map<AsNumber, uint32_t> local_pref;
  /// Prefixes this AS originates.
  std::vector<Prefix> prefixes;

  [[nodiscard]] crypto::Bytes serialize() const;
  static RoutingPolicy deserialize(crypto::BytesView wire);
  /// serialize() == other.serialize(), without encoding either: compares
  /// only what the encoding carries, so a local_pref of 0 equals an absent
  /// one and a local_pref for a non-neighbor is ignored.
  [[nodiscard]] bool same_encoding(const RoutingPolicy& other) const;

  /// Extracts every AS's policy from a topology, assigning deterministic
  /// pseudo-random local preferences and one self-prefix per AS.
  static std::map<AsNumber, RoutingPolicy> from_graph(const AsGraph& graph,
                                                      crypto::Drbg& rng);
};

}  // namespace tenet::routing
