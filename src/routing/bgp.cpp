#include "routing/bgp.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <set>
#include <stdexcept>

#include "crypto/work.h"

namespace tenet::routing {

namespace {

/// Work charged per candidate-route evaluation: models the parse/compare/
/// copy instructions a BGP decision step executes.
constexpr uint64_t kAluPerCandidate = 3'000;
constexpr uint64_t kAluPerPathHop = 150;

void validate_consistency(const std::map<AsNumber, RoutingPolicy>& policies) {
  for (const auto& [asn, policy] : policies) {
    if (policy.asn != asn) {
      throw std::invalid_argument("BgpComputation: policy/key mismatch");
    }
    for (const auto& [nbr, rel] : policy.neighbor_rel) {
      const auto it = policies.find(nbr);
      if (it == policies.end()) {
        throw std::invalid_argument("BgpComputation: neighbor has no policy");
      }
      const auto back = it->second.neighbor_rel.find(asn);
      if (back == it->second.neighbor_rel.end() ||
          back->second != inverse(rel)) {
        throw std::invalid_argument(
            "BgpComputation: inconsistent relationship annotation");
      }
    }
  }
}

uint32_t local_pref_of(const RoutingPolicy& p, AsNumber nbr) {
  const auto it = p.local_pref.find(nbr);
  return it != p.local_pref.end() ? it->second : 0;
}

}  // namespace

crypto::Bytes Route::serialize() const {
  crypto::Bytes out;
  // prefix | path length | path | learned_from | pref | self_originated
  out.reserve(4 + 4 + 4 * as_path.size() + 1 + 4 + 1);
  crypto::append_u32(out, prefix);
  crypto::append_u32(out, static_cast<uint32_t>(as_path.size()));
  for (const AsNumber a : as_path) crypto::append_u32(out, a);
  out.push_back(static_cast<uint8_t>(learned_from));
  crypto::append_u32(out, pref);
  out.push_back(self_originated ? 1 : 0);
  return out;
}

Route Route::deserialize(crypto::BytesView wire) {
  crypto::Reader r(wire);
  Route route;
  route.prefix = r.u32();
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) route.as_path.push_back(r.u32());
  route.learned_from = relationship_from_wire(r.u8());
  route.pref = r.u32();
  const uint8_t self_originated = r.u8();
  if (self_originated > 1) throw std::invalid_argument("Route: bad flag");
  route.self_originated = self_originated == 1;
  if (!r.done()) throw std::invalid_argument("Route: trailing bytes");
  return route;
}

bool Route::better_than(const Route& other) const {
  if (pref != other.pref) return pref > other.pref;
  if (as_path.size() != other.as_path.size()) {
    return as_path.size() < other.as_path.size();
  }
  return next_hop() < other.next_hop();
}

const Route* ComputationResult::route_of(AsNumber asn, Prefix p) const {
  const auto it = tables.find(asn);
  if (it == tables.end()) return nullptr;
  const auto jt = it->second.find(p);
  return jt != it->second.end() ? &jt->second : nullptr;
}

uint32_t BgpComputation::import_pref(Relationship rel, uint32_t lp) {
  // Relationship class dominates: customer 300+, peer 200+, provider 100+.
  const uint32_t base = rel == Relationship::kCustomer ? 300
                        : rel == Relationship::kPeer   ? 200
                                                       : 100;
  return base + std::min<uint32_t>(lp, 99);
}

bool BgpComputation::exportable(Relationship learned_from, Relationship to) {
  // Valley-free: customer-learned routes go everywhere; peer/provider
  // routes only down to customers.
  if (learned_from == Relationship::kCustomer) return true;
  return to == Relationship::kCustomer;
}

ComputationResult BgpComputation::compute(
    const std::map<AsNumber, RoutingPolicy>& policies) {
  return compute_filtered(policies, nullptr);
}

ComputationResult BgpComputation::compute(
    const std::map<AsNumber, RoutingPolicy>& policies,
    const std::set<AsNumber>& origin_ases) {
  return compute_filtered(policies, &origin_ases);
}

ComputationResult BgpComputation::compute_filtered(
    const std::map<AsNumber, RoutingPolicy>& policies,
    const std::set<AsNumber>* origin_filter) {
  validate_consistency(policies);

  // Dense form: AS rank r is the r-th policy in ASN order, and every loop
  // below visits ASes, and each AS's neighbors, in ASN order. Ties, the
  // order of each candidate vector and the sequence of per-candidate
  // charges depend on that order (BgpPinned.* pins all three).
  const size_t n = policies.size();
  std::vector<AsNumber> asn_of;
  std::vector<const RoutingPolicy*> policy_of;
  asn_of.reserve(n);
  policy_of.reserve(n);
  for (const auto& [asn, policy] : policies) {
    asn_of.push_back(asn);
    policy_of.push_back(&policy);
  }
  const auto rank_of = [&asn_of](AsNumber asn) {
    return static_cast<uint32_t>(
        std::lower_bound(asn_of.begin(), asn_of.end(), asn) - asn_of.begin());
  };

  // Adjacency in CSR form; edge e of AS r (edges[first[r] + e]) is r's
  // e-th neighbor in neighbor_rel order.
  struct Edge {
    uint32_t nbr;           // the neighbor's rank
    Relationship rel;       // the neighbor's role seen from this AS
    Relationship rel_back;  // this AS's role seen from the neighbor
    uint32_t pref_in;       // this AS's import pref for the neighbor's routes
    uint32_t pref_out;      // the neighbor's import pref for this AS's routes
  };
  std::vector<uint32_t> first(n + 1, 0);
  std::vector<Edge> edges;
  for (size_t r = 0; r < n; ++r) {
    const RoutingPolicy& pr = *policy_of[r];
    for (const auto& [nbr, rel] : pr.neighbor_rel) {
      const uint32_t u = rank_of(nbr);
      // validate_consistency guarantees the neighbor's annotation of us.
      const Relationship back = inverse(rel);
      edges.push_back(
          Edge{u, rel, back, import_pref(rel, local_pref_of(pr, nbr)),
               import_pref(back, local_pref_of(*policy_of[u], asn_of[r]))});
    }
    first[r + 1] = static_cast<uint32_t>(edges.size());
  }

  // Collect origins (restricted to the filter's ASes when slicing).
  std::vector<std::pair<Prefix, uint32_t>> origins;
  for (size_t r = 0; r < n; ++r) {
    if (origin_filter != nullptr && !origin_filter->contains(asn_of[r])) {
      continue;
    }
    for (const Prefix p : policy_of[r]->prefixes) origins.emplace_back(p, r);
  }

  // What each AS holds: its current best route (the origin holds its
  // self-originated one). Two generations, swapped after every sweep.
  struct Held {
    bool reachable = false;
    Relationship learned_from = Relationship::kCustomer;
    uint32_t pref = 0;
    std::vector<AsNumber> as_path;
  };
  std::vector<Held> best(n);
  std::vector<Held> next(n);
  const auto on_path = [](const Held& h, AsNumber asn) {
    return std::find(h.as_path.begin(), h.as_path.end(), asn) !=
           h.as_path.end();
  };

  // Each AS's entries in `result`, looked up once (per call, and per origin
  // for heard = candidates_of[v][prefix]): a map lookup per route cost a
  // sixth of a 1/8 slice.
  ComputationResult result;
  std::vector<RoutingTable*> table_of(n, nullptr);
  std::vector<std::map<Prefix, std::vector<Route>>*> candidates_of(n, nullptr);
  std::vector<std::vector<Route>*> heard(n);

  for (const auto& [prefix, origin] : origins) {
    for (size_t r = 0; r < n; ++r) {
      best[r].reachable = false;
      next[r].reachable = false;
    }
    for (std::vector<Held>* gen : {&best, &next}) {
      Held& self = (*gen)[origin];
      self.reachable = true;
      self.learned_from = Relationship::kCustomer;
      self.pref = 1000;
      self.as_path.clear();
    }

    // Synchronous best-response sweeps: each round, every AS re-chooses
    // its best route from what its neighbors *currently* hold (not a
    // monotone-improvement relaxation — a neighbor switching paths can
    // make a previously heard route disappear). Gao-Rexford-consistent
    // policies are safe: this converges to the unique stable solution.
    bool changed = true;
    size_t iterations = 0;
    while (changed) {
      changed = false;
      if (++iterations > n + 8) {
        throw std::runtime_error("BgpComputation: failed to converge");
      }
      for (size_t v = 0; v < n; ++v) {
        if (v == origin) continue;
        const Edge* chosen = nullptr;
        size_t chosen_len = 0;
        for (uint32_t e = first[v]; e < first[v + 1]; ++e) {
          const Edge& edge = edges[e];
          const Held& held_u = best[edge.nbr];
          if (!held_u.reachable) continue;
          if (edge.nbr != origin &&
              !exportable(held_u.learned_from, edge.rel_back)) {
            continue;
          }
          crypto::work::charge_alu(kAluPerCandidate +
                                   kAluPerPathHop * held_u.as_path.size());
          if (on_path(held_u, asn_of[v])) continue;  // loop
          // Route::better_than: higher pref, then shorter path. Its last
          // rule, the lower next hop, keeps the earlier edge on a tie, as
          // edges run in ascending neighbor order.
          const size_t len = held_u.as_path.size() + 1;
          if (chosen == nullptr || edge.pref_in > chosen->pref_in ||
              (edge.pref_in == chosen->pref_in && len < chosen_len)) {
            chosen = &edge;
            chosen_len = len;
          }
        }
        Held& out = next[v];
        const bool was = best[v].reachable;
        if (chosen == nullptr) {
          out.reachable = false;
          changed = changed || was;
          continue;
        }
        const Held& via = best[chosen->nbr];
        out.reachable = true;
        out.learned_from = chosen->rel;
        out.pref = chosen->pref_in;
        out.as_path.clear();
        out.as_path.push_back(asn_of[chosen->nbr]);
        out.as_path.insert(out.as_path.end(), via.as_path.begin(),
                           via.as_path.end());
        changed = changed || !was || best[v].pref != out.pref ||
                  best[v].as_path != out.as_path;
      }
      best.swap(next);
    }

    // Final pass: record converged tables and the candidate sets (what
    // each AS hears from each neighbor in the converged state).
    for (size_t r = 0; r < n; ++r) {
      if (!best[r].reachable || r == origin) continue;
      if (table_of[r] == nullptr) table_of[r] = &result.tables[asn_of[r]];
      (*table_of[r])[prefix] = Route{
          prefix, best[r].as_path, best[r].learned_from, best[r].pref, false};
    }
    std::fill(heard.begin(), heard.end(), nullptr);
    for (size_t u = 0; u < n; ++u) {
      const Held& held_u = best[u];
      if (!held_u.reachable) continue;
      for (uint32_t e = first[u]; e < first[u + 1]; ++e) {
        const Edge& edge = edges[e];
        const uint32_t v = edge.nbr;
        if (u != origin && !exportable(held_u.learned_from, edge.rel)) {
          continue;
        }
        if (v == origin || on_path(held_u, asn_of[v])) continue;
        if (heard[v] == nullptr) {
          if (candidates_of[v] == nullptr) {
            candidates_of[v] = &result.candidates[asn_of[v]];
          }
          heard[v] = &(*candidates_of[v])[prefix];
        }
        Route& cand = heard[v]->emplace_back();
        cand.prefix = prefix;
        cand.as_path.reserve(held_u.as_path.size() + 1);
        cand.as_path.push_back(asn_of[u]);
        cand.as_path.insert(cand.as_path.end(), held_u.as_path.begin(),
                            held_u.as_path.end());
        cand.learned_from = edge.rel_back;
        cand.pref = edge.pref_out;
        crypto::work::charge_alu(kAluPerCandidate);
      }
    }
  }
  return result;
}

std::map<AsNumber, RoutingTable> ReferenceBgp::compute(
    const std::map<AsNumber, RoutingPolicy>& policies) {
  validate_consistency(policies);

  // Distributed BGP: each AS holds an Adj-RIB-In per neighbor and reacts
  // to update messages. Withdrawals are unnecessary (static topology,
  // monotone improvement within a neighbor's stream is not assumed — a
  // neighbor's new announcement replaces its old one).
  struct Update {
    AsNumber from, to;
    bool withdraw;
    Route route;  // as seen by the *sender* (path starts at sender's hop)
  };
  std::map<AsNumber, std::map<AsNumber, std::map<Prefix, Route>>> rib_in;
  std::map<AsNumber, std::map<Prefix, Route>> loc_rib;  // chosen (non-self)
  std::deque<Update> queue;  // FIFO preserves per-link message order

  auto announce_to_neighbors = [&](AsNumber u, const Route& chosen) {
    const RoutingPolicy& pu = policies.at(u);
    for (const auto& [v, rel_v] : pu.neighbor_rel) {
      if (!chosen.self_originated &&
          !BgpComputation::exportable(chosen.learned_from, rel_v)) {
        // Export no longer permitted toward v: withdraw any earlier
        // announcement (the chosen route changed relationship class).
        Update w{u, v, /*withdraw=*/true, Route{}};
        w.route.prefix = chosen.prefix;
        queue.push_back(std::move(w));
        continue;
      }
      Route advert;
      advert.prefix = chosen.prefix;
      advert.as_path.push_back(u);
      advert.as_path.insert(advert.as_path.end(), chosen.as_path.begin(),
                            chosen.as_path.end());
      queue.push_back(Update{u, v, /*withdraw=*/false, std::move(advert)});
    }
  };

  // Bootstrap: origins announce their prefixes.
  for (const auto& [asn, policy] : policies) {
    for (const Prefix p : policy.prefixes) {
      Route self;
      self.prefix = p;
      self.self_originated = true;
      self.pref = 1000;
      announce_to_neighbors(asn, self);
    }
  }

  size_t processed = 0;
  while (!queue.empty()) {
    if (++processed > 4'000'000) {
      throw std::runtime_error("ReferenceBgp: update storm (no convergence)");
    }
    Update up = std::move(queue.front());
    queue.pop_front();
    const RoutingPolicy& pv = policies.at(up.to);
    const Prefix prefix = up.route.prefix;

    // Ignore announcements for prefixes we originate.
    if (std::find(pv.prefixes.begin(), pv.prefixes.end(), prefix) !=
        pv.prefixes.end()) {
      continue;
    }

    if (up.withdraw) {
      rib_in[up.to][up.from].erase(prefix);
    } else if (std::find(up.route.as_path.begin(), up.route.as_path.end(),
                         up.to) != up.route.as_path.end()) {
      // Loop: treat as an implicit withdrawal of this neighbor's offer.
      rib_in[up.to][up.from].erase(prefix);
    } else {
      Route imported = up.route;
      imported.learned_from = pv.neighbor_rel.at(up.from);
      imported.pref = BgpComputation::import_pref(imported.learned_from,
                                                  local_pref_of(pv, up.from));
      rib_in[up.to][up.from][prefix] = std::move(imported);
    }

    // Decision process over all of Adj-RIB-In.
    const Route* best = nullptr;
    for (const auto& [nbr, routes] : rib_in[up.to]) {
      const auto it = routes.find(prefix);
      if (it == routes.end()) continue;
      if (best == nullptr || it->second.better_than(*best)) {
        best = &it->second;
      }
    }
    auto& current = loc_rib[up.to];
    const auto cur_it = current.find(prefix);
    if (best == nullptr) {
      if (cur_it != current.end()) {
        // Lost all routes: withdraw everywhere.
        current.erase(cur_it);
        for (const auto& [v, rel_v] : pv.neighbor_rel) {
          Update w{up.to, v, /*withdraw=*/true, Route{}};
          w.route.prefix = prefix;
          queue.push_back(std::move(w));
        }
      }
      continue;
    }
    const bool changed = cur_it == current.end() ||
                         !(cur_it->second.as_path == best->as_path &&
                           cur_it->second.pref == best->pref);
    if (changed) {
      current[prefix] = *best;
      announce_to_neighbors(up.to, *best);
    }
  }

  std::map<AsNumber, RoutingTable> tables;
  for (auto& [asn, routes] : loc_rib) {
    for (auto& [p, r] : routes) tables[asn][p] = r;
  }
  return tables;
}

void ReferenceBgp::check_stable(
    const std::map<AsNumber, RoutingPolicy>& policies,
    const std::map<AsNumber, RoutingTable>& tables) {
  auto fail = [](const std::string& why) { throw std::logic_error(why); };

  for (const auto& [asn, table] : tables) {
    const RoutingPolicy& pa = policies.at(asn);
    for (const auto& [prefix, route] : table) {
      // Path structure: non-empty, loop-free, ends at an originator.
      if (route.as_path.empty()) fail("empty path");
      std::set<AsNumber> seen{asn};
      for (const AsNumber hop : route.as_path) {
        if (!seen.insert(hop).second) fail("loop in path");
      }
      const RoutingPolicy& porigin = policies.at(route.as_path.back());
      if (std::find(porigin.prefixes.begin(), porigin.prefixes.end(),
                    prefix) == porigin.prefixes.end()) {
        fail("path does not end at the prefix origin");
      }
      // Links exist; path is valley-free under export rules.
      AsNumber prev = asn;
      for (size_t i = 0; i < route.as_path.size(); ++i) {
        const AsNumber hop = route.as_path[i];
        if (!policies.at(prev).neighbor_rel.contains(hop)) {
          fail("path uses a non-existent link");
        }
        if (i + 1 < route.as_path.size()) {
          const RoutingPolicy& phop = policies.at(hop);
          const Relationship learned = phop.neighbor_rel.at(route.as_path[i + 1]);
          const Relationship to = phop.neighbor_rel.at(prev);
          if (!BgpComputation::exportable(learned, to)) {
            fail("path violates export (valley-free) rules");
          }
        }
        prev = hop;
      }
      // Next-hop consistency: our path through v extends v's chosen path.
      const AsNumber v = route.as_path.front();
      if (route.as_path.size() > 1) {
        const auto vt = tables.find(v);
        if (vt == tables.end()) fail("next hop has no routing table");
        const auto& vtable = vt->second;
        const auto vr = vtable.find(prefix);
        if (vr == vtable.end()) fail("next hop has no route");
        std::vector<AsNumber> expected{route.as_path.begin() + 1,
                                       route.as_path.end()};
        if (vr->second.as_path != expected) {
          fail("path does not extend next hop's chosen path");
        }
      }
      // Stability: no strictly better offer exists among neighbors'
      // chosen routes (best-response condition).
      for (const auto& [nbr, rel_nbr] : pa.neighbor_rel) {
        Route offer;
        bool offered = false;
        const RoutingPolicy& pn = policies.at(nbr);
        if (std::find(pn.prefixes.begin(), pn.prefixes.end(), prefix) !=
            pn.prefixes.end()) {
          offer.as_path = {nbr};
          offered = true;
        } else {
          const auto nt = tables.find(nbr);
          if (nt != tables.end()) {
            const auto nr = nt->second.find(prefix);
            if (nr != nt->second.end() &&
                BgpComputation::exportable(nr->second.learned_from,
                                           pn.neighbor_rel.at(asn))) {
              offer.as_path.push_back(nbr);
              offer.as_path.insert(offer.as_path.end(),
                                   nr->second.as_path.begin(),
                                   nr->second.as_path.end());
              offered = true;
            }
          }
        }
        if (!offered) continue;
        if (std::find(offer.as_path.begin(), offer.as_path.end(), asn) !=
            offer.as_path.end()) {
          continue;  // loopy offer; not usable
        }
        offer.prefix = prefix;
        offer.learned_from = rel_nbr;
        offer.pref = BgpComputation::import_pref(offer.learned_from,
                                                 local_pref_of(pa, nbr));
        if (offer.better_than(route)) {
          fail("instability: a neighbor offers a strictly better route");
        }
      }
    }
  }
}

}  // namespace tenet::routing
