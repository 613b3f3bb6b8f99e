#include "routing/topology.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace tenet::routing {

const char* to_string(Relationship r) {
  switch (r) {
    case Relationship::kCustomer: return "customer";
    case Relationship::kPeer: return "peer";
    case Relationship::kProvider: return "provider";
  }
  return "?";
}

Relationship inverse(Relationship r) {
  switch (r) {
    case Relationship::kCustomer: return Relationship::kProvider;
    case Relationship::kProvider: return Relationship::kCustomer;
    case Relationship::kPeer: return Relationship::kPeer;
  }
  return Relationship::kPeer;
}

Relationship relationship_from_wire(uint8_t byte) {
  if (byte > static_cast<uint8_t>(Relationship::kProvider)) {
    throw std::invalid_argument("bad relationship byte");
  }
  return static_cast<Relationship>(byte);
}

void AsGraph::add_as(AsNumber asn) { adj_[asn]; }

void AsGraph::add_link(AsNumber a, Relationship rel_of_b_from_a, AsNumber b) {
  if (a == b) throw std::invalid_argument("AsGraph: self link");
  adj_[a][b] = rel_of_b_from_a;
  adj_[b][a] = inverse(rel_of_b_from_a);
}

void AsGraph::add_customer_provider(AsNumber customer, AsNumber provider) {
  add_link(customer, Relationship::kProvider, provider);
}

void AsGraph::add_peering(AsNumber a, AsNumber b) {
  add_link(a, Relationship::kPeer, b);
}

bool AsGraph::has_as(AsNumber asn) const { return adj_.contains(asn); }

bool AsGraph::has_link(AsNumber a, AsNumber b) const {
  const auto it = adj_.find(a);
  return it != adj_.end() && it->second.contains(b);
}

std::optional<Relationship> AsGraph::relationship(AsNumber asn,
                                                  AsNumber neighbor) const {
  const auto it = adj_.find(asn);
  if (it == adj_.end()) return std::nullopt;
  const auto jt = it->second.find(neighbor);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

std::vector<AsNumber> AsGraph::ases() const {
  std::vector<AsNumber> out;
  out.reserve(adj_.size());
  for (const auto& [asn, _] : adj_) out.push_back(asn);
  return out;
}

std::vector<std::pair<AsNumber, Relationship>> AsGraph::neighbors(
    AsNumber asn) const {
  std::vector<std::pair<AsNumber, Relationship>> out;
  const auto it = adj_.find(asn);
  if (it == adj_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [n, rel] : it->second) out.emplace_back(n, rel);
  return out;
}

size_t AsGraph::link_count() const {
  size_t twice = 0;
  for (const auto& [asn, nbrs] : adj_) twice += nbrs.size();
  return twice / 2;
}

bool AsGraph::connected() const {
  if (adj_.empty()) return true;
  std::set<AsNumber> seen;
  std::vector<AsNumber> stack{adj_.begin()->first};
  while (!stack.empty()) {
    const AsNumber u = stack.back();
    stack.pop_back();
    if (!seen.insert(u).second) continue;
    for (const auto& [v, rel] : adj_.at(u)) {
      if (!seen.contains(v)) stack.push_back(v);
    }
  }
  return seen.size() == adj_.size();
}

AsGraph AsGraph::random(crypto::Drbg& rng, size_t n_ases,
                        double extra_peering_prob) {
  if (n_ases < 2) throw std::invalid_argument("AsGraph::random: need >= 2 ASes");
  AsGraph g;
  // Tier sizes: ~10% tier-1 (at least 1), ~30% mid, rest stubs.
  const size_t n_tier1 = std::max<size_t>(1, n_ases / 10);
  const size_t n_mid = std::max<size_t>(1, (n_ases * 3) / 10);
  const AsNumber first_mid = static_cast<AsNumber>(n_tier1 + 1);
  const AsNumber first_stub = static_cast<AsNumber>(n_tier1 + n_mid + 1);

  for (AsNumber asn = 1; asn <= n_ases; ++asn) g.add_as(asn);

  // Tier-1 full peering clique.
  for (AsNumber a = 1; a <= n_tier1; ++a) {
    for (AsNumber b = a + 1; b <= n_tier1; ++b) g.add_peering(a, b);
  }
  // Mid tier buys from 1-2 tier-1 providers.
  for (AsNumber m = first_mid; m < first_stub && m <= n_ases; ++m) {
    const AsNumber p1 = static_cast<AsNumber>(1 + rng.uniform(n_tier1));
    g.add_customer_provider(m, p1);
    if (n_tier1 > 1 && rng.uniform_real() < 0.5) {
      AsNumber p2 = static_cast<AsNumber>(1 + rng.uniform(n_tier1));
      while (p2 == p1) p2 = static_cast<AsNumber>(1 + rng.uniform(n_tier1));
      g.add_customer_provider(m, p2);
    }
    // Lateral peering within the mid tier.
    for (AsNumber other = first_mid; other < m; ++other) {
      if (rng.uniform_real() < extra_peering_prob) g.add_peering(m, other);
    }
  }
  // Stubs buy from 1-2 mid-tier providers.
  const size_t mid_span = first_stub - first_mid;
  for (AsNumber s = first_stub; s <= n_ases; ++s) {
    const AsNumber p1 =
        static_cast<AsNumber>(first_mid + rng.uniform(mid_span));
    g.add_customer_provider(s, p1);
    if (mid_span > 1 && rng.uniform_real() < 0.3) {
      AsNumber p2 = static_cast<AsNumber>(first_mid + rng.uniform(mid_span));
      while (p2 == p1) {
        p2 = static_cast<AsNumber>(first_mid + rng.uniform(mid_span));
      }
      g.add_customer_provider(s, p2);
    }
  }
  return g;
}

crypto::Bytes RoutingPolicy::serialize() const {
  crypto::Bytes out;
  crypto::append_u32(out, asn);
  crypto::append_u32(out, static_cast<uint32_t>(neighbor_rel.size()));
  for (const auto& [n, rel] : neighbor_rel) {
    crypto::append_u32(out, n);
    out.push_back(static_cast<uint8_t>(rel));
    const auto lp = local_pref.find(n);
    crypto::append_u32(out, lp != local_pref.end() ? lp->second : 0);
  }
  crypto::append_u32(out, static_cast<uint32_t>(prefixes.size()));
  for (const Prefix p : prefixes) crypto::append_u32(out, p);
  return out;
}

bool RoutingPolicy::same_encoding(const RoutingPolicy& other) const {
  if (asn != other.asn || neighbor_rel != other.neighbor_rel ||
      prefixes != other.prefixes) {
    return false;
  }
  const auto pref_of = [](const RoutingPolicy& p, AsNumber n) {
    const auto lp = p.local_pref.find(n);
    return lp != p.local_pref.end() ? lp->second : 0;
  };
  for (const auto& [n, rel] : neighbor_rel) {
    if (pref_of(*this, n) != pref_of(other, n)) return false;
  }
  return true;
}

RoutingPolicy RoutingPolicy::deserialize(crypto::BytesView wire) {
  crypto::Reader r(wire);
  RoutingPolicy p;
  p.asn = r.u32();
  const uint32_t n_nbr = r.u32();
  for (uint32_t i = 0; i < n_nbr; ++i) {
    const AsNumber n = r.u32();
    // serialize() lists neighbors in ascending order; any other order (or a
    // neighbor listed twice) would decode to a policy that re-encodes to
    // other bytes.
    if (!p.neighbor_rel.empty() && n <= p.neighbor_rel.rbegin()->first) {
      throw std::invalid_argument("RoutingPolicy: neighbors out of order");
    }
    p.neighbor_rel.emplace(n, relationship_from_wire(r.u8()));
    const uint32_t lp = r.u32();
    if (lp != 0) p.local_pref[n] = lp;
  }
  const uint32_t n_pfx = r.u32();
  for (uint32_t i = 0; i < n_pfx; ++i) p.prefixes.push_back(r.u32());
  if (!r.done()) throw std::invalid_argument("RoutingPolicy: trailing bytes");
  return p;
}

std::map<AsNumber, RoutingPolicy> RoutingPolicy::from_graph(
    const AsGraph& graph, crypto::Drbg& rng) {
  std::map<AsNumber, RoutingPolicy> out;
  for (const AsNumber asn : graph.ases()) {
    RoutingPolicy p;
    p.asn = asn;
    for (const auto& [n, rel] : graph.neighbors(asn)) {
      p.neighbor_rel[n] = rel;
      p.local_pref[n] = static_cast<uint32_t>(rng.uniform(50));
    }
    p.prefixes.push_back(asn);
    out[asn] = std::move(p);
  }
  return out;
}

}  // namespace tenet::routing
