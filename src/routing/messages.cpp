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
  if (wire.empty()) throw std::invalid_argument("message_type: empty message");
  return static_cast<MsgType>(wire[0]);
}

crypto::BytesView message_body(crypto::BytesView wire) {
  if (wire.empty()) throw std::invalid_argument("message_body: empty message");
  return wire.subspan(1);
}

crypto::Bytes encode_routing_table(const RoutingTable& table) {
  crypto::Bytes out;
  crypto::append_u32(out, static_cast<uint32_t>(table.size()));
  for (const auto& [prefix, route] : table) {
    crypto::append_lv(out, route.serialize());
  }
  return out;
}

RoutingTable decode_routing_table(crypto::BytesView wire) {
  crypto::Reader r(wire);
  RoutingTable table;
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    Route route = Route::deserialize(r.lv());
    table[route.prefix] = std::move(route);
  }
  return table;
}

void append_binding(crypto::Bytes& out, netsim::NodeId node,
                    const RoutingPolicy& policy) {
  crypto::append_u32(out, node);
  crypto::append_lv(out, policy.serialize());
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

std::vector<PolicyBinding> decode_bindings(crypto::BytesView wire) {
  crypto::Reader r(wire);
  std::vector<PolicyBinding> out = read_bindings(r);
  if (!r.done()) throw std::invalid_argument("bindings: trailing bytes");
  return out;
}

}  // namespace tenet::routing
