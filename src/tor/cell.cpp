#include "tor/cell.h"

#include <stdexcept>

namespace tenet::tor {

namespace {
constexpr uint64_t kForwardNonce = 0x544f5246;   // "TORF"
constexpr uint64_t kBackwardNonce = 0x544f5242;  // "TORB"
constexpr size_t kDigestLen = 8;
}  // namespace

crypto::Bytes Cell::serialize() const {
  if (payload.size() > kCellPayload) {
    throw std::invalid_argument("Cell: payload too large");
  }
  crypto::Bytes out;
  out.reserve(kCellSize);
  crypto::append_u32(out, circuit);
  out.push_back(static_cast<uint8_t>(command));
  out.push_back(static_cast<uint8_t>(payload.size() >> 8));
  out.push_back(static_cast<uint8_t>(payload.size()));
  crypto::append(out, payload);
  out.resize(kCellSize, 0);
  return out;
}

Cell Cell::deserialize(crypto::BytesView wire) {
  if (wire.size() != kCellSize) {
    throw std::invalid_argument("Cell: wrong wire size");
  }
  crypto::Reader r(wire);
  Cell cell;
  cell.circuit = r.u32();
  cell.command = static_cast<CellCommand>(r.u8());
  const size_t len = (static_cast<size_t>(r.u8()) << 8) | r.u8();
  if (len > kCellPayload) throw std::invalid_argument("Cell: bad length");
  cell.payload = r.take(len);
  return cell;
}

HopKeys HopKeys::derive(crypto::BytesView shared_secret) {
  const crypto::Bytes material =
      crypto::hkdf(crypto::to_bytes("tenet.tor.hop"), shared_secret,
                   crypto::to_bytes("keys"), 16 + 16 + 32);
  HopKeys keys;
  std::copy(material.begin(), material.begin() + 16, keys.forward_key.begin());
  std::copy(material.begin() + 16, material.begin() + 32,
            keys.backward_key.begin());
  keys.digest_key.assign(material.begin() + 32, material.end());
  return keys;
}

crypto::Bytes RelayPayload::seal(const HopKeys& keys) const {
  crypto::Bytes body;
  crypto::append_u32(body, stream);
  crypto::append(body, data);
  const crypto::Digest mac = crypto::hmac_sha256(keys.digest_key, body);
  crypto::Bytes out;
  out.reserve(kDigestLen + body.size());
  out.assign(mac.begin(), mac.begin() + kDigestLen);
  crypto::append(out, body);
  return out;
}

std::optional<RelayPayload> RelayPayload::open(const HopKeys& keys,
                                               crypto::BytesView plain) {
  if (plain.size() < kDigestLen + 4) return std::nullopt;
  const crypto::BytesView digest = plain.first(kDigestLen);
  const crypto::BytesView body = plain.subspan(kDigestLen);
  const crypto::Digest mac = crypto::hmac_sha256(keys.digest_key, body);
  if (!crypto::ct_equal(digest, crypto::BytesView(mac.data(), kDigestLen))) {
    return std::nullopt;
  }
  RelayPayload out;
  out.stream = crypto::read_u32(body, 0);
  out.data.assign(body.begin() + 4, body.end());
  return out;
}

crypto::Bytes OnionCrypt::wrap_forward(crypto::BytesView inner) {
  crypto::Bytes data(inner.begin(), inner.end());
  // Innermost layer = exit; wrap outward toward the guard.
  for (size_t i = hops_.size(); i-- > 0;) {
    const crypto::Aes128 aes(hops_[i].keys.forward_key);
    data = aes.ctr_crypt(kForwardNonce, hops_[i].fwd_seq++ << 16, data);
  }
  return data;
}

crypto::Bytes OnionCrypt::unwrap_backward(crypto::BytesView wrapped) {
  crypto::Bytes data(wrapped.begin(), wrapped.end());
  // Each relay adds a layer as the cell travels backward, so the guard's
  // layer is outermost; strip from hop 0 inward.
  for (size_t i = 0; i < hops_.size(); ++i) {
    const crypto::Aes128 aes(hops_[i].keys.backward_key);
    data = aes.ctr_crypt(kBackwardNonce, hops_[i].bwd_seq++ << 16, data);
  }
  return data;
}

crypto::Bytes OnionCrypt::peel_forward(const HopKeys& keys,
                                       crypto::BytesView data, uint64_t seq) {
  const crypto::Aes128 aes(keys.forward_key);
  return aes.ctr_crypt(kForwardNonce, seq << 16, data);
}

crypto::Bytes OnionCrypt::add_backward(const HopKeys& keys,
                                       crypto::BytesView data, uint64_t seq) {
  const crypto::Aes128 aes(keys.backward_key);
  return aes.ctr_crypt(kBackwardNonce, seq << 16, data);
}

}  // namespace tenet::tor
