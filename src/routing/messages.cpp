#include "routing/messages.h"

#include <algorithm>
#include <stdexcept>

namespace tenet::routing {

namespace {
crypto::Bytes with_tag(MsgType t, crypto::BytesView body) {
  crypto::Bytes out(1 + body.size());
  out[0] = static_cast<uint8_t>(t);
  std::copy(body.begin(), body.end(), out.begin() + 1);
  return out;
}

void expect_done(const crypto::Reader& r) {
  if (!r.done()) throw std::invalid_argument("routing message: trailing bytes");
}

/// A cross-shard message's body after its tag, which must be `tag`.
crypto::BytesView agg_body(crypto::BytesView inner, AggMsg tag) {
  if (agg_type(inner) != tag) throw std::invalid_argument("wrong tag");
  return inner.subspan(1);
}

void append_table(crypto::Bytes& out, const RoutingTable& table) {
  crypto::append_u32(out, static_cast<uint32_t>(table.size()));
  for (const auto& [prefix, route] : table) {
    crypto::append_lv(out, route.serialize());
  }
}

/// Reads `u32 n | n × LV route`, handing each route to `sink`. Each prefix
/// must exceed the one before it, or with `repeats` may also equal it.
template <typename Sink>
void read_routes(crypto::Reader& r, bool repeats, Sink sink) {
  const uint32_t n = r.u32();
  Prefix last = 0;
  for (uint32_t i = 0; i < n; ++i) {
    Route route = Route::deserialize(r.lv_view());
    if (i > 0 && (route.prefix < last || (!repeats && route.prefix == last))) {
      throw std::invalid_argument("route list: prefixes out of order");
    }
    last = route.prefix;
    sink(std::move(route));
  }
}

RoutingTable read_table(crypto::Reader& r) {
  RoutingTable table;
  read_routes(r, /*repeats=*/false, [&table](Route route) {
    table.emplace_hint(table.end(), route.prefix, std::move(route));
  });
  return table;
}

PolicyBinding read_binding(crypto::Reader& r) {
  PolicyBinding b;
  b.node = r.u32();
  b.policy = RoutingPolicy::deserialize(r.lv_view());
  return b;
}

std::vector<PolicyBinding> read_bindings(crypto::Reader& r) {
  const uint32_t n = r.u32();
  std::vector<PolicyBinding> out;  // not reserved: n is the peer's claim
  for (uint32_t i = 0; i < n; ++i) out.push_back(read_binding(r));
  return out;
}

/// Overwrites the u32 that append_u32 wrote at `at`.
void put_u32(crypto::Bytes& out, size_t at, uint32_t v) {
  for (size_t i = 4; i > 0; --i, v >>= 8) {
    out[at + i - 1] = static_cast<uint8_t>(v);
  }
}

/// A live set on the wire: `u32 d | d × u32 shard`, strictly ascending.
void append_shards(crypto::Bytes& out, const std::vector<uint32_t>& shards) {
  crypto::append_u32(out, static_cast<uint32_t>(shards.size()));
  for (const uint32_t shard : shards) crypto::append_u32(out, shard);
}

std::vector<uint32_t> read_shards(crypto::Reader& r) {
  std::vector<uint32_t> shards;  // not reserved: d is the peer's claim
  for (uint32_t d = r.u32(); d > 0; --d) {
    const uint32_t shard = r.u32();
    if (!shards.empty() && shard <= shards.back()) {
      throw std::invalid_argument("partial: members out of order");
    }
    shards.push_back(shard);
  }
  return shards;
}

/// A kPartial's tag, down list and base.
void append_partial_head(crypto::Bytes& out, const std::vector<uint32_t>& down,
                         const std::vector<uint32_t>* base) {
  out.push_back(static_cast<uint8_t>(AggMsg::kPartial));
  append_shards(out, down);
  out.push_back(base != nullptr ? 1 : 0);
  if (base != nullptr) append_shards(out, *base);
}

/// Appends `u32 asn | chosen | candidates` with the rows whose prefix
/// `keep` admits; writes nothing, and returns false, when none does.
template <typename Keep>
bool append_rows(crypto::Bytes& out, AsNumber asn, const RoutingTable& chosen,
                 const std::map<Prefix, std::vector<Route>>& cands, Keep keep) {
  const size_t start = out.size();
  crypto::append_u32(out, asn);
  size_t count_at = out.size();
  crypto::append_u32(out, 0);
  uint32_t rows = 0;
  for (const auto& [p, route] : chosen) {
    if (!keep(p)) continue;
    crypto::append_lv(out, route.serialize());
    ++rows;
  }
  put_u32(out, count_at, rows);
  count_at = out.size();
  crypto::append_u32(out, 0);
  uint32_t n = 0;
  for (const auto& [p, v] : cands) {
    if (!keep(p)) continue;
    for (const Route& route : v) crypto::append_lv(out, route.serialize());
    n += static_cast<uint32_t>(v.size());
  }
  put_u32(out, count_at, n);
  if (rows + n > 0) return true;
  out.resize(start);
  return false;
}

void append_bindings(crypto::Bytes& out,
                     const std::vector<BindingRef>& bindings) {
  crypto::append_u32(out, static_cast<uint32_t>(bindings.size()));
  for (const BindingRef& b : bindings) append_binding(out, b.node, b.policy);
}
}  // namespace

crypto::Bytes encode_policy_submission(const RoutingPolicy& policy) {
  return with_tag(MsgType::kPolicySubmission, policy.serialize());
}

crypto::Bytes encode_route_advertisement(const RoutingTable& table) {
  return with_tag(MsgType::kRouteAdvertisement, encode_routing_table(table));
}

crypto::Bytes encode_register_predicate(uint32_t pred_id, const Predicate& p) {
  crypto::Bytes body;
  crypto::append_u32(body, pred_id);
  crypto::append_lv(body, p.serialize());
  return with_tag(MsgType::kRegisterPredicate, body);
}

crypto::Bytes encode_verify_request(uint32_t pred_id) {
  crypto::Bytes body;
  crypto::append_u32(body, pred_id);
  return with_tag(MsgType::kVerifyRequest, body);
}

crypto::Bytes encode_verify_response(uint32_t pred_id, VerifyStatus status) {
  crypto::Bytes body;
  crypto::append_u32(body, pred_id);
  body.push_back(static_cast<uint8_t>(status));
  return with_tag(MsgType::kVerifyResponse, body);
}

MsgType message_type(crypto::BytesView wire) {
  return wire.empty() ? MsgType{} : static_cast<MsgType>(wire[0]);
}

crypto::BytesView message_body(crypto::BytesView wire) {
  if (wire.empty()) throw std::invalid_argument("message_body: empty message");
  return wire.subspan(1);
}

PredicateRegistration decode_register_predicate(crypto::BytesView body) {
  crypto::Reader r(body);
  const uint32_t pred_id = r.u32();
  PredicateRegistration reg{pred_id, Predicate::deserialize(r.lv_view())};
  expect_done(r);
  return reg;
}

uint32_t decode_verify_request(crypto::BytesView body) {
  if (body.size() != 4) throw std::invalid_argument("verify request: size");
  return crypto::read_u32(body, 0);
}

VerifyResponse decode_verify_response(crypto::BytesView body) {
  crypto::Reader r(body);
  const uint32_t pred_id = r.u32();
  const uint8_t status = r.u8();
  expect_done(r);
  if (status == 0 || status > static_cast<uint8_t>(VerifyStatus::kNotAParty)) {
    throw std::invalid_argument("verify response: unknown status");
  }
  return {pred_id, static_cast<VerifyStatus>(status)};
}

crypto::Bytes encode_routing_table(const RoutingTable& table) {
  crypto::Bytes out;
  append_table(out, table);
  return out;
}

RoutingTable decode_routing_table(crypto::BytesView wire) {
  crypto::Reader r(wire);
  RoutingTable table = read_table(r);
  expect_done(r);
  return table;
}

void append_binding(crypto::Bytes& out, netsim::NodeId node,
                    const RoutingPolicy& policy) {
  crypto::append_u32(out, node);
  crypto::append_lv(out, policy.serialize());
}

PolicyBinding decode_binding(crypto::BytesView wire) {
  crypto::Reader r(wire);
  PolicyBinding b = read_binding(r);
  expect_done(r);
  return b;
}

crypto::Bytes encode_bindings(const std::vector<BindingRef>& bindings) {
  crypto::Bytes out;
  append_bindings(out, bindings);
  return out;
}

std::vector<PolicyBinding> decode_bindings(crypto::BytesView wire) {
  crypto::Reader r(wire);
  std::vector<PolicyBinding> out = read_bindings(r);
  expect_done(r);
  return out;
}

crypto::Bytes encode_checkpoint(const std::vector<BindingRef>& bindings,
                                bool was_sharded) {
  crypto::Bytes out;
  append_bindings(out, bindings);
  out.push_back(was_sharded ? 1 : 0);
  return out;
}

Checkpoint decode_checkpoint(crypto::BytesView wire) {
  crypto::Reader r(wire);
  Checkpoint c{read_bindings(r), false};
  const uint8_t was_sharded = r.u8();
  if (was_sharded > 1) throw std::invalid_argument("checkpoint: bad flag");
  expect_done(r);
  c.was_sharded = was_sharded == 1;
  return c;
}

AggMsg agg_type(crypto::BytesView inner) {
  return inner.empty() ? AggMsg{} : static_cast<AggMsg>(inner[0]);
}

crypto::Bytes encode_policy_flood(const std::vector<BindingRef>& bindings) {
  crypto::Bytes out;
  out.push_back(static_cast<uint8_t>(AggMsg::kPolicy));
  append_bindings(out, bindings);
  return out;
}

std::vector<PolicyBinding> decode_policy_flood(crypto::BytesView inner) {
  return decode_bindings(agg_body(inner, AggMsg::kPolicy));
}

void append_partial(crypto::Bytes& out, const std::vector<uint32_t>& down,
                    const std::vector<uint32_t>* base,
                    const std::vector<PartialAs>& ases,
                    const ComputationResult& slice) {
  append_partial_head(out, down, base);
  static const RoutingTable kNoRows;
  static const std::map<Prefix, std::vector<Route>> kNoCandidates;
  const size_t count_at = out.size();
  crypto::append_u32(out, 0);
  uint32_t n = 0;
  for (const PartialAs& a : ases) {
    const auto t = slice.tables.find(a.asn);
    const auto c = slice.candidates.find(a.asn);
    const RoutingTable& chosen = t != slice.tables.end() ? t->second : kNoRows;
    const auto& cands = c != slice.candidates.end() ? c->second : kNoCandidates;
    const bool wrote =
        a.only == nullptr
            ? append_rows(out, a.asn, chosen, cands, [](Prefix) { return true; })
            : append_rows(out, a.asn, chosen, cands,
                          [&a](Prefix p) { return a.only->contains(p); });
    if (wrote) ++n;
  }
  put_u32(out, count_at, n);
}

Partial decode_partial(crypto::BytesView inner) {
  crypto::Reader r(agg_body(inner, AggMsg::kPartial));
  Partial partial;
  partial.down = read_shards(r);
  const uint8_t has_base = r.u8();
  if (has_base > 1) throw std::invalid_argument("partial: bad base flag");
  if (has_base == 1) partial.base = read_shards(r);
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    const AsNumber asn = r.u32();
    if (!partial.rows.empty() && asn <= partial.rows.rbegin()->first) {
      throw std::invalid_argument("partial: ASes out of order");
    }
    PartialRows& rows = partial.rows[asn];
    rows.chosen = read_table(r);
    read_routes(r, /*repeats=*/true, [&rows](Route route) {
      rows.candidates[route.prefix].push_back(std::move(route));
    });
    if (rows.chosen.empty() && rows.candidates.empty()) {
      throw std::invalid_argument("partial: an AS with no row");
    }
  }
  expect_done(r);
  return partial;
}

crypto::Bytes encode_partial_request() {
  return {static_cast<uint8_t>(AggMsg::kPartialRequest)};
}

void decode_partial_request(crypto::BytesView inner) {
  if (!agg_body(inner, AggMsg::kPartialRequest).empty()) {
    throw std::invalid_argument("partial request: trailing bytes");
  }
}

}  // namespace tenet::routing
