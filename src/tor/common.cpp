#include "tor/common.h"

#include <algorithm>
#include <stdexcept>

namespace tenet::tor {

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kBaseline: return "baseline";
    case Phase::kSgxDirectories: return "sgx-directories";
    case Phase::kSgxRelays: return "sgx-relays";
    case Phase::kFullySgx: return "fully-sgx";
  }
  return "?";
}

crypto::Bytes RelayDescriptor::serialize() const {
  crypto::Bytes out;
  crypto::append_u32(out, node);
  crypto::append_lv(out, crypto::to_bytes(nickname));
  crypto::append_lv(out, onion_public);
  out.push_back(exit ? 1 : 0);
  out.push_back(claims_sgx ? 1 : 0);
  return out;
}

namespace {
bool flag_from_wire(uint8_t byte) {
  if (byte > 1) throw std::invalid_argument("RelayDescriptor: bad flag byte");
  return byte == 1;
}
}  // namespace

RelayDescriptor RelayDescriptor::deserialize(crypto::BytesView wire) {
  crypto::Reader r(wire);
  RelayDescriptor d;
  d.node = r.u32();
  d.nickname = crypto::to_string(r.lv());
  d.onion_public = r.lv();
  d.exit = flag_from_wire(r.u8());
  d.claims_sgx = flag_from_wire(r.u8());
  if (!r.done()) throw std::invalid_argument("RelayDescriptor: trailing bytes");
  return d;
}

const RelayDescriptor* Consensus::find(netsim::NodeId node) const {
  for (const RelayDescriptor& d : relays) {
    if (d.node == node) return &d;
  }
  return nullptr;
}

std::vector<const RelayDescriptor*> Consensus::exits() const {
  std::vector<const RelayDescriptor*> out;
  for (const RelayDescriptor& d : relays) {
    if (d.exit) out.push_back(&d);
  }
  return out;
}

crypto::Bytes Consensus::serialize() const {
  crypto::Bytes out;
  crypto::append_u32(out, epoch);
  crypto::append_u32(out, static_cast<uint32_t>(relays.size()));
  for (const RelayDescriptor& d : relays) crypto::append_lv(out, d.serialize());
  return out;
}

Consensus Consensus::deserialize(crypto::BytesView wire) {
  crypto::Reader r(wire);
  Consensus c;
  c.epoch = r.u32();
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    c.relays.push_back(RelayDescriptor::deserialize(r.lv()));
  }
  return c;
}

crypto::Bytes tag_message(TorMsg tag, crypto::BytesView body) {
  crypto::Bytes out(1 + body.size());
  out[0] = static_cast<uint8_t>(tag);
  std::copy(body.begin(), body.end(), out.begin() + 1);
  return out;
}

TorMsg message_tag(crypto::BytesView wire) {
  if (wire.empty()) throw std::invalid_argument("message_tag: empty");
  return static_cast<TorMsg>(wire[0]);
}

crypto::BytesView message_body(crypto::BytesView wire) {
  if (wire.empty()) throw std::invalid_argument("message_body: empty");
  return wire.subspan(1);
}

}  // namespace tenet::tor
