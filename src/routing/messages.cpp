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

void append_partial(crypto::Bytes& out, uint32_t from_shard,
                    const std::vector<AsNumber>& fronted,
                    const ComputationResult& slice) {
  out.push_back(static_cast<uint8_t>(AggMsg::kPartial));
  crypto::append_u32(out, from_shard);
  crypto::append_u32(out, static_cast<uint32_t>(fronted.size()));
  static const RoutingTable kNoRows;
  static const std::map<Prefix, std::vector<Route>> kNoCandidates;
  for (const AsNumber asn : fronted) {
    crypto::append_u32(out, asn);
    const auto t = slice.tables.find(asn);
    append_table(out, t != slice.tables.end() ? t->second : kNoRows);
    const auto c = slice.candidates.find(asn);
    const auto& cands = c != slice.candidates.end() ? c->second : kNoCandidates;
    uint32_t n = 0;
    for (const auto& [p, v] : cands) n += static_cast<uint32_t>(v.size());
    crypto::append_u32(out, n);
    for (const auto& [p, v] : cands) {
      for (const Route& route : v) crypto::append_lv(out, route.serialize());
    }
  }
}

Partial decode_partial(crypto::BytesView inner) {
  crypto::Reader r(agg_body(inner, AggMsg::kPartial));
  Partial partial;
  partial.from_shard = r.u32();
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
  }
  expect_done(r);
  return partial;
}

}  // namespace tenet::routing
