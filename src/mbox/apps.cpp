#include "mbox/apps.h"

#include "core/ports.h"
#include "telemetry/trace.h"

namespace tenet::mbox {

namespace {
/// Zero-copy counterpart of encode_frame(kRecord, sid, dir,
/// channel.seal(data)): writes the record-frame header and seals `data`
/// directly into the frame tail, which then moves into the ocall ring
/// (Ctx::send_framed). On the wire the bytes are identical to the copying
/// form.
void send_sealed_record(core::Ctx& ctx, netsim::NodeId hop, uint32_t sid,
                        Direction dir, netsim::SecureChannel& channel,
                        crypto::BytesView data) {
  constexpr size_t kFrameHeader = 10;  // u8 tag | u32 sid | u8 dir | u32 len
  const size_t record_len = netsim::SecureChannel::sealed_size(data.size());
  ctx.send_framed(
      hop, core::kPortPlain, kFrameHeader + record_len,
      [&](std::span<uint8_t> out) {
        out[0] = static_cast<uint8_t>(MboxMsg::kRecord);
        out[1] = static_cast<uint8_t>(sid >> 24);
        out[2] = static_cast<uint8_t>(sid >> 16);
        out[3] = static_cast<uint8_t>(sid >> 8);
        out[4] = static_cast<uint8_t>(sid);
        out[5] = static_cast<uint8_t>(dir);
        out[6] = static_cast<uint8_t>(record_len >> 24);
        out[7] = static_cast<uint8_t>(record_len >> 16);
        out[8] = static_cast<uint8_t>(record_len >> 8);
        out[9] = static_cast<uint8_t>(record_len);
        channel.seal_into(data, out.subspan(kFrameHeader));
      });
}
}  // namespace

crypto::Bytes encode_open(uint32_t sid,
                          const std::vector<netsim::NodeId>& rest) {
  crypto::Bytes out;
  out.push_back(static_cast<uint8_t>(MboxMsg::kOpen));
  crypto::append_u32(out, sid);
  crypto::append_u32(out, static_cast<uint32_t>(rest.size()));
  for (const netsim::NodeId n : rest) crypto::append_u32(out, n);
  return out;
}

crypto::Bytes encode_frame(MboxMsg tag, uint32_t sid, Direction dir,
                           crypto::BytesView body) {
  crypto::Bytes out;
  out.push_back(static_cast<uint8_t>(tag));
  crypto::append_u32(out, sid);
  out.push_back(static_cast<uint8_t>(dir));
  crypto::append_lv(out, body);
  return out;
}

Frame decode_frame(crypto::BytesView wire) {
  crypto::Reader r(wire);
  const uint8_t tag = r.u8();
  Frame f;
  f.sid = r.u32();
  switch (tag) {
    case static_cast<uint8_t>(MboxMsg::kOpen): {
      // Checked against what the frame holds, so a hostile count reserves
      // nothing.
      const uint32_t n = r.u32();
      if (r.remaining() != 4 * uint64_t{n}) {
        throw std::invalid_argument("mbox frame: hop count does not fit");
      }
      f.tag = MboxMsg::kOpen;
      f.body = r.view(r.remaining());
      return f;
    }
    case static_cast<uint8_t>(MboxMsg::kHandshake):
    case static_cast<uint8_t>(MboxMsg::kRecord): {
      const uint8_t dir = r.u8();
      if (dir > static_cast<uint8_t>(Direction::kServerToClient)) {
        throw std::invalid_argument("mbox frame: unknown direction");
      }
      f.tag = static_cast<MboxMsg>(tag);
      f.dir = static_cast<Direction>(dir);
      f.body = r.lv_view();
      if (!r.done()) throw std::invalid_argument("mbox frame: trailing bytes");
      return f;
    }
    default:
      throw std::invalid_argument("mbox frame: unknown tag");
  }
}

crypto::Bytes encode_provision(uint32_t sid, EndpointRole role,
                               const TlsKeyMaterial& keys) {
  crypto::Bytes out;
  out.push_back(static_cast<uint8_t>(MboxSecureMsg::kProvision));
  crypto::append_u32(out, sid);
  out.push_back(static_cast<uint8_t>(role));
  crypto::append_lv(out, keys.serialize());
  return out;
}

Provision decode_provision(crypto::BytesView wire) {
  crypto::Reader r(wire);
  if (r.u8() != static_cast<uint8_t>(MboxSecureMsg::kProvision)) {
    throw std::invalid_argument("mbox provision: unknown tag");
  }
  Provision p;
  p.sid = r.u32();
  const uint8_t role = r.u8();
  if (role != static_cast<uint8_t>(EndpointRole::kClient) &&
      role != static_cast<uint8_t>(EndpointRole::kServer)) {
    throw std::invalid_argument("mbox provision: unknown role");
  }
  p.role = static_cast<EndpointRole>(role);
  p.keys = TlsKeyMaterial::deserialize(r.lv_view());
  if (!r.done()) throw std::invalid_argument("mbox provision: trailing bytes");
  return p;
}

// ---------------------------------------------------------------------------
// TlsEndpointApp
// ---------------------------------------------------------------------------

template <typename Tls>
TlsEndpointApp<Tls>::TlsEndpointApp(const sgx::Authority& authority,
                                    sgx::AttestationConfig config,
                                    EndpointRole role, Direction inbound)
    : SecureApp(authority, config), role_(role), inbound_(inbound) {}

template <typename Tls>
typename TlsEndpointApp<Tls>::Session& TlsEndpointApp<Tls>::start_session(
    core::Ctx& ctx, uint32_t sid, netsim::NodeId hop) {
  ctx.alloc(256);
  Session& s = sessions_[sid];
  s.hop = hop;
  s.tls.emplace(ctx.rng());
  return s;
}

template <typename Tls>
typename TlsEndpointApp<Tls>::Session* TlsEndpointApp<Tls>::established_session(
    uint32_t sid) {
  const auto it = sessions_.find(sid);
  return it != sessions_.end() && it->second.tls->established() ? &it->second
                                                                 : nullptr;
}

template <typename Tls>
void TlsEndpointApp<Tls>::on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                                           crypto::BytesView payload) {
  try {
    const Frame f = decode_frame(payload);
    if (f.tag == MboxMsg::kOpen) {
      on_open(ctx, peer, f);
      return;
    }
    const auto it = sessions_.find(f.sid);
    if (it == sessions_.end() || peer != it->second.hop || f.dir != inbound_) {
      return;
    }
    Session& s = it->second;
    if (f.tag == MboxMsg::kHandshake) {
      on_handshake(ctx, f.sid, s, f.body);
      return;
    }
    // A record: open it, keep the plaintext, then hand it to the end.
    if (!s.tls->established()) return;
    const auto plain = s.tls->channel().open(f.body);
    if (!plain.has_value()) return;
    ctx.alloc(plain->size());
    crypto::append_lv(s.received, *plain);
    on_record(ctx, f.sid, s, *plain);
  } catch (const std::exception&) {
    return;
  }
}

template <typename Tls>
void TlsEndpointApp<Tls>::on_peer_attested(core::Ctx& ctx,
                                           netsim::NodeId peer) {
  const auto it = pending_provision_.find(peer);
  if (it == pending_provision_.end()) return;
  for (const uint32_t sid : it->second) {
    const Session* s = established_session(sid);
    if (s == nullptr) continue;
    ctx.send_secure(peer, encode_provision(sid, role_, s->tls->keys()));
  }
  pending_provision_.erase(it);
}

template <typename Tls>
crypto::Bytes TlsEndpointApp<Tls>::on_control(core::Ctx& ctx, uint32_t subfn,
                                              crypto::BytesView arg) {
  switch (subfn) {
    case kCtlIsEstablished: {
      crypto::Bytes out;
      out.push_back(established_session(crypto::read_u32(arg, 0)) != nullptr
                        ? 1
                        : 0);
      return out;
    }
    case kCtlReceived: {
      const auto it = sessions_.find(crypto::read_u32(arg, 0));
      return it != sessions_.end() ? it->second.received : crypto::Bytes{};
    }
    case kCtlProvisionMbox: {
      crypto::Reader r(arg);
      const uint32_t sid = r.u32();
      const netsim::NodeId mbox = r.u32();
      const Session* s = established_session(sid);
      if (s == nullptr) return {};
      if (is_attested(mbox)) {
        ctx.send_secure(mbox, encode_provision(sid, role_, s->tls->keys()));
      } else {
        pending_provision_[mbox].push_back(sid);
        ctx.connect(mbox);
      }
      return {};
    }
    default:
      return {};
  }
}

template class TlsEndpointApp<TlsClientSession>;
template class TlsEndpointApp<TlsServerSession>;

// ---------------------------------------------------------------------------
// TlsClientApp
// ---------------------------------------------------------------------------

TlsClientApp::TlsClientApp(const sgx::Authority& authority,
                           sgx::AttestationConfig config)
    : TlsEndpointApp(authority, config, EndpointRole::kClient,
                     Direction::kServerToClient) {}

void TlsClientApp::on_handshake(core::Ctx& ctx, uint32_t sid, Session& s,
                                crypto::BytesView msg) {
  const auto finished = s.tls->handle_server_hello(msg);
  if (!finished.has_value()) return;
  ctx.send_plain(s.hop, encode_frame(MboxMsg::kHandshake, sid,
                                     Direction::kClientToServer, *finished));
}

crypto::Bytes TlsClientApp::on_control(core::Ctx& ctx, uint32_t subfn,
                                       crypto::BytesView arg) {
  switch (subfn) {
    case kCtlOpenSession: {
      TENET_TRACE_ROOT("mbox", "open_session");
      crypto::Reader r(arg);
      const netsim::NodeId server = r.u32();
      const uint32_t n_mbox = r.u32();
      std::vector<netsim::NodeId> path;
      for (uint32_t i = 0; i < n_mbox; ++i) path.push_back(r.u32());
      path.push_back(server);

      const uint32_t sid = next_sid_++;
      Session& s = start_session(ctx, sid, path.front());
      const std::vector<netsim::NodeId> rest(path.begin() + 1, path.end());
      ctx.send_plain(s.hop, encode_open(sid, rest));
      ctx.send_plain(s.hop, encode_frame(MboxMsg::kHandshake, sid,
                                         Direction::kClientToServer,
                                         s.tls->hello()));
      crypto::Bytes out;
      crypto::append_u32(out, sid);
      return out;
    }
    case kCtlSendData: {
      TENET_TRACE_ROOT("mbox", "send_data");
      crypto::Reader r(arg);
      const uint32_t sid = r.u32();
      const crypto::Bytes data = r.lv();
      Session* s = established_session(sid);
      if (s == nullptr) return {};
      send_sealed_record(ctx, s->hop, sid, Direction::kClientToServer,
                         s->tls->channel(), data);
      return {};
    }
    case kCtlProvisionMbox: {
      // The client's provisioning is a trace of its own.
      TENET_TRACE_ROOT("mbox", "provision");
      return TlsEndpointApp::on_control(ctx, subfn, arg);
    }
    default:
      return TlsEndpointApp::on_control(ctx, subfn, arg);
  }
}

// ---------------------------------------------------------------------------
// TlsServerApp
// ---------------------------------------------------------------------------

TlsServerApp::TlsServerApp(const sgx::Authority& authority,
                           sgx::AttestationConfig config)
    : TlsEndpointApp(authority, config, EndpointRole::kServer,
                     Direction::kClientToServer) {}

void TlsServerApp::on_open(core::Ctx& ctx, netsim::NodeId peer,
                           const Frame& f) {
  if (f.hop_count() != 0) return;  // we are the path's end
  start_session(ctx, f.sid, peer);
}

void TlsServerApp::on_handshake(core::Ctx& ctx, uint32_t sid, Session& s,
                                crypto::BytesView msg) {
  if (s.tls->established()) return;
  // Either the hello or the finished.
  const auto reply = s.tls->handle_hello(msg);
  if (reply.has_value()) {
    ctx.send_plain(s.hop, encode_frame(MboxMsg::kHandshake, sid,
                                       Direction::kServerToClient, *reply));
    return;
  }
  (void)s.tls->handle_finished(msg);
}

void TlsServerApp::on_record(core::Ctx& ctx, uint32_t sid, Session& s,
                             crypto::BytesView plain) {
  crypto::Bytes response = crypto::to_bytes("ok:");
  crypto::append(response, plain);
  send_sealed_record(ctx, s.hop, sid, Direction::kServerToClient,
                     s.tls->channel(), response);
}

// ---------------------------------------------------------------------------
// DpiMiddleboxApp
// ---------------------------------------------------------------------------

DpiMiddleboxApp::DpiMiddleboxApp(const sgx::Authority& authority,
                                 sgx::AttestationConfig config,
                                 MboxPolicy policy,
                                 std::vector<std::string> patterns)
    : SecureApp(authority, config), policy_(policy) {
  for (std::string& p : patterns) patterns_.add(std::move(p));
  patterns_.build();
}

void DpiMiddleboxApp::maybe_activate(Session& s) {
  if (s.active || !s.keys.has_value()) return;
  if (policy_.require_both_endpoints &&
      (s.client_peer == netsim::kInvalidNode ||
       s.server_peer == netsim::kInvalidNode)) {
    return;
  }
  // Passive views: open client->server records like the server would and
  // server->client records like the client would.
  s.c2s_view.emplace(s.keys->channel_key, /*initiator=*/false);
  s.s2c_view.emplace(s.keys->channel_key, /*initiator=*/true);
  s.c2s_scan.emplace(patterns_);
  s.s2c_scan.emplace(patterns_);
  s.active = true;
}

void DpiMiddleboxApp::forward(core::Ctx& ctx, const Session& s, Direction dir,
                              crypto::BytesView wire) {
  const netsim::NodeId to =
      dir == Direction::kClientToServer ? s.next : s.prev;
  if (to == netsim::kInvalidNode) return;
  ctx.send_plain(to, wire);
}

void DpiMiddleboxApp::on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                                       crypto::BytesView payload) {
  try {
    const Frame f = decode_frame(payload);
    if (f.tag == MboxMsg::kOpen) {
      const size_t n = f.hop_count();
      if (n == 0) return;  // malformed: a middlebox is never the endpoint
      Session& s = sessions_[f.sid];
      ctx.alloc(512);
      s.prev = peer;
      s.next = f.hop(0);
      std::vector<netsim::NodeId> rest;
      for (size_t i = 1; i < n; ++i) rest.push_back(f.hop(i));
      ctx.send_plain(s.next, encode_open(f.sid, rest));
      return;
    }

    const auto it = sessions_.find(f.sid);
    if (it == sessions_.end()) return;
    Session& s = it->second;
    // Only accept traffic from the session's actual neighbors.
    if (peer != s.prev && peer != s.next) return;

    if (f.tag == MboxMsg::kHandshake) {
      forward(ctx, s, f.dir, payload);
      return;
    }
    if (!s.active) {
      if (policy_.fail_closed) {
        // No keys, fail-closed: an uninspectable record does not pass.
        ++blocked_;
        return;
      }
      // No keys, fail-open: the middlebox is blind — pass the ciphertext
      // through.
      ++opaque_forwarded_;
      forward(ctx, s, f.dir, payload);
      return;
    }
    const bool c2s = f.dir == Direction::kClientToServer;
    auto& view = c2s ? s.c2s_view : s.s2c_view;
    auto& scanner = c2s ? s.c2s_scan : s.s2c_scan;
    // Stage the ciphertext in the reusable scratch and decrypt in place:
    // the relay hot path makes no per-record allocations, and the original
    // wire bytes stay untouched for the onward forward below.
    scratch_.assign(f.body.begin(), f.body.end());
    const auto plain_len = view->open_in_place(scratch_);
    if (!plain_len.has_value()) {
      // Unopenable record on a provisioned session: drop (integrity).
      ++blocked_;
      return;
    }
    ++inspected_;
    const auto matches = scanner->scan(crypto::BytesView(
        scratch_.data() + crypto::Aead::kHeaderSize, *plain_len));
    bool block = false;
    for (const DpiMatch& m : matches) {
      alerts_.push_back(m);
      if (policy_.block_on_match) block = true;
    }
    if (block) {
      ++blocked_;
      return;  // IPS mode: record dropped
    }
    forward(ctx, s, f.dir, payload);
  } catch (const std::exception&) {
    return;
  }
}

void DpiMiddleboxApp::on_secure_message(core::Ctx&, netsim::NodeId peer,
                                        crypto::BytesView payload) {
  try {
    // Decoded before the session is touched: a malformed key leaves no
    // state behind to refuse the right key that follows.
    Provision p = decode_provision(payload);
    Session& s = sessions_[p.sid];
    const bool client = p.role == EndpointRole::kClient;
    netsim::NodeId& holder = client ? s.client_peer : s.server_peer;
    const netsim::NodeId other = client ? s.server_peer : s.client_peer;
    // A role is bound to the first peer that provisions it, and one peer
    // cannot hold both roles of a session.
    if (other == peer ||
        (holder != netsim::kInvalidNode && holder != peer)) {
      return;
    }
    if (s.keys.has_value() &&
        !crypto::ct_equal(s.keys->channel_key, p.keys.channel_key)) {
      return;  // conflicting keys: refuse
    }
    s.keys = std::move(p.keys);
    holder = peer;
    maybe_activate(s);
  } catch (const std::exception&) {
    return;
  }
}

crypto::Bytes DpiMiddleboxApp::on_checkpoint(core::Ctx&) {
  crypto::Bytes state;
  crypto::append_u32(state, static_cast<uint32_t>(sessions_.size()));
  for (const auto& [sid, s] : sessions_) {
    crypto::append_u32(state, sid);
    crypto::append_u32(state, s.prev);
    crypto::append_u32(state, s.next);
  }
  return state;
}

void DpiMiddleboxApp::on_restore(core::Ctx& ctx, crypto::BytesView state) {
  try {
    crypto::Reader r(state);
    const uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t sid = r.u32();
      Session& s = sessions_[sid];
      ctx.alloc(512);
      s.prev = r.u32();
      s.next = r.u32();
      // active stays false: keys died with the old enclave. Records on
      // this session now follow the fail-open/fail-closed policy until
      // the endpoints re-attest us and provision fresh key material.
    }
  } catch (const std::exception&) {
    return;
  }
}

crypto::Bytes DpiMiddleboxApp::on_control(core::Ctx&, uint32_t subfn,
                                          crypto::BytesView arg) {
  crypto::Bytes out;
  switch (subfn) {
    case kCtlAlertCount:
      crypto::append_u64(out, alerts_.size());
      return out;
    case kCtlAlerts:
      for (const DpiMatch& m : alerts_) {
        crypto::append_u32(out, m.pattern_id);
        crypto::append_u64(out, m.end_offset);
      }
      return out;
    case kCtlSessionActive: {
      const auto it = sessions_.find(crypto::read_u32(arg, 0));
      out.push_back(it != sessions_.end() && it->second.active ? 1 : 0);
      return out;
    }
    case kCtlOpaqueForwarded:
      crypto::append_u64(out, opaque_forwarded_);
      return out;
    case kCtlBlockedCount:
      crypto::append_u64(out, blocked_);
      return out;
    case kCtlInspectedCount:
      crypto::append_u64(out, inspected_);
      return out;
    default:
      return out;
  }
}

}  // namespace tenet::mbox
