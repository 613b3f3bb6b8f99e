#include "mbox/apps.h"

#include "core/ports.h"
#include "telemetry/trace.h"

namespace tenet::mbox {

namespace {
MboxMsg tag_of(crypto::BytesView wire) {
  if (wire.empty()) throw std::invalid_argument("mbox: empty message");
  return static_cast<MboxMsg>(wire[0]);
}

/// Zero-copy counterpart of encode_record(sid, dir, channel.seal(data)):
/// writes the record-frame header and seals `data` directly into the frame
/// tail, which then moves into the ocall ring (Ctx::send_framed). On the
/// wire the bytes are identical to the copying form.
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

crypto::Bytes encode_handshake(uint32_t sid, Direction dir,
                               crypto::BytesView payload) {
  crypto::Bytes out;
  out.push_back(static_cast<uint8_t>(MboxMsg::kHandshake));
  crypto::append_u32(out, sid);
  out.push_back(static_cast<uint8_t>(dir));
  crypto::append_lv(out, payload);
  return out;
}

crypto::Bytes encode_record(uint32_t sid, Direction dir,
                            crypto::BytesView record) {
  crypto::Bytes out;
  out.push_back(static_cast<uint8_t>(MboxMsg::kRecord));
  crypto::append_u32(out, sid);
  out.push_back(static_cast<uint8_t>(dir));
  crypto::append_lv(out, record);
  return out;
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

// ---------------------------------------------------------------------------
// TlsClientApp
// ---------------------------------------------------------------------------

TlsClientApp::TlsClientApp(const sgx::Authority& authority,
                           sgx::AttestationConfig config)
    : SecureApp(authority, config) {}

void TlsClientApp::on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                                    crypto::BytesView payload) {
  try {
    crypto::Reader r(payload);
    const MboxMsg tag = tag_of(payload);
    (void)r.u8();
    const uint32_t sid = r.u32();
    const auto it = sessions_.find(sid);
    if (it == sessions_.end() || peer != it->second.first_hop) return;
    Session& s = it->second;

    if (tag == MboxMsg::kHandshake) {
      const Direction dir = static_cast<Direction>(r.u8());
      if (dir != Direction::kServerToClient || !s.tls.has_value()) return;
      const auto finished = s.tls->handle_server_hello(r.lv());
      if (!finished.has_value()) return;
      ctx.send_plain(s.first_hop,
                     encode_handshake(sid, Direction::kClientToServer,
                                      *finished));
      return;
    }
    if (tag == MboxMsg::kRecord) {
      const Direction dir = static_cast<Direction>(r.u8());
      if (dir != Direction::kServerToClient || !s.tls.has_value() ||
          !s.tls->established()) {
        return;
      }
      const auto plain = s.tls->channel().open(r.lv());
      if (!plain.has_value()) return;
      ctx.alloc(plain->size());
      crypto::append_lv(s.received, *plain);
      return;
    }
  } catch (const std::exception&) {
    return;
  }
}

void TlsClientApp::on_peer_attested(core::Ctx& ctx, netsim::NodeId peer) {
  const auto it = pending_provision_.find(peer);
  if (it == pending_provision_.end()) return;
  for (const uint32_t sid : it->second) {
    const auto st = sessions_.find(sid);
    if (st == sessions_.end() || !st->second.tls.has_value() ||
        !st->second.tls->established()) {
      continue;
    }
    ctx.send_secure(peer, encode_provision(sid, EndpointRole::kClient,
                                           st->second.tls->keys()));
  }
  pending_provision_.erase(it);
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
      Session& s = sessions_[sid];
      ctx.alloc(256);
      s.first_hop = path.front();
      s.tls.emplace(ctx.rng());

      const std::vector<netsim::NodeId> rest(path.begin() + 1, path.end());
      ctx.send_plain(s.first_hop, encode_open(sid, rest));
      ctx.send_plain(s.first_hop,
                     encode_handshake(sid, Direction::kClientToServer,
                                      s.tls->hello()));
      crypto::Bytes out;
      crypto::append_u32(out, sid);
      return out;
    }
    case kCtlIsEstablished: {
      const auto it = sessions_.find(crypto::read_u32(arg, 0));
      crypto::Bytes out;
      out.push_back(it != sessions_.end() && it->second.tls.has_value() &&
                            it->second.tls->established()
                        ? 1
                        : 0);
      return out;
    }
    case kCtlSendData: {
      TENET_TRACE_ROOT("mbox", "send_data");
      crypto::Reader r(arg);
      const uint32_t sid = r.u32();
      const crypto::Bytes data = r.lv();
      const auto it = sessions_.find(sid);
      if (it == sessions_.end() || !it->second.tls.has_value() ||
          !it->second.tls->established()) {
        return {};
      }
      send_sealed_record(ctx, it->second.first_hop, sid,
                         Direction::kClientToServer,
                         it->second.tls->channel(), data);
      return {};
    }
    case kCtlReceived: {
      const auto it = sessions_.find(crypto::read_u32(arg, 0));
      return it != sessions_.end() ? it->second.received : crypto::Bytes{};
    }
    case kCtlProvisionMbox: {
      TENET_TRACE_ROOT("mbox", "provision");
      crypto::Reader r(arg);
      const uint32_t sid = r.u32();
      const netsim::NodeId mbox = r.u32();
      const auto it = sessions_.find(sid);
      if (it == sessions_.end() || !it->second.tls.has_value() ||
          !it->second.tls->established()) {
        return {};
      }
      if (is_attested(mbox)) {
        ctx.send_secure(mbox, encode_provision(sid, EndpointRole::kClient,
                                               it->second.tls->keys()));
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

// ---------------------------------------------------------------------------
// TlsServerApp
// ---------------------------------------------------------------------------

TlsServerApp::TlsServerApp(const sgx::Authority& authority,
                           sgx::AttestationConfig config)
    : SecureApp(authority, config) {}

void TlsServerApp::on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                                    crypto::BytesView payload) {
  try {
    crypto::Reader r(payload);
    const MboxMsg tag = tag_of(payload);
    (void)r.u8();
    const uint32_t sid = r.u32();

    if (tag == MboxMsg::kOpen) {
      const uint32_t n = r.u32();
      if (n != 0) return;  // we are the path's end
      Session& s = sessions_[sid];
      ctx.alloc(256);
      s.prev_hop = peer;
      s.tls.emplace(ctx.rng());
      return;
    }
    const auto it = sessions_.find(sid);
    if (it == sessions_.end() || peer != it->second.prev_hop) return;
    Session& s = it->second;

    if (tag == MboxMsg::kHandshake) {
      const Direction dir = static_cast<Direction>(r.u8());
      if (dir != Direction::kClientToServer || !s.tls.has_value()) return;
      const crypto::Bytes payload_bytes = r.lv();
      if (!s.tls->established()) {
        // Either the hello or the finished.
        const auto reply = s.tls->handle_hello(payload_bytes);
        if (reply.has_value()) {
          ctx.send_plain(s.prev_hop,
                         encode_handshake(sid, Direction::kServerToClient,
                                          *reply));
          return;
        }
        (void)s.tls->handle_finished(payload_bytes);
      }
      return;
    }
    if (tag == MboxMsg::kRecord) {
      const Direction dir = static_cast<Direction>(r.u8());
      if (dir != Direction::kClientToServer || !s.tls.has_value() ||
          !s.tls->established()) {
        return;
      }
      const auto plain = s.tls->channel().open(r.lv());
      if (!plain.has_value()) return;
      ctx.alloc(plain->size());
      crypto::append_lv(s.received, *plain);
      crypto::Bytes response = crypto::to_bytes("ok:");
      crypto::append(response, *plain);
      send_sealed_record(ctx, s.prev_hop, sid, Direction::kServerToClient,
                         s.tls->channel(), response);
      return;
    }
  } catch (const std::exception&) {
    return;
  }
}

void TlsServerApp::on_peer_attested(core::Ctx& ctx, netsim::NodeId peer) {
  const auto it = pending_provision_.find(peer);
  if (it == pending_provision_.end()) return;
  for (const uint32_t sid : it->second) {
    const auto st = sessions_.find(sid);
    if (st == sessions_.end() || !st->second.tls.has_value() ||
        !st->second.tls->established()) {
      continue;
    }
    ctx.send_secure(peer, encode_provision(sid, EndpointRole::kServer,
                                           st->second.tls->keys()));
  }
  pending_provision_.erase(it);
}

crypto::Bytes TlsServerApp::on_control(core::Ctx& ctx, uint32_t subfn,
                                       crypto::BytesView arg) {
  switch (subfn) {
    case kCtlIsEstablished: {
      const auto it = sessions_.find(crypto::read_u32(arg, 0));
      crypto::Bytes out;
      out.push_back(it != sessions_.end() && it->second.tls.has_value() &&
                            it->second.tls->established()
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
      const auto it = sessions_.find(sid);
      if (it == sessions_.end() || !it->second.tls.has_value() ||
          !it->second.tls->established()) {
        return {};
      }
      if (is_attested(mbox)) {
        ctx.send_secure(mbox, encode_provision(sid, EndpointRole::kServer,
                                               it->second.tls->keys()));
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
      (!s.provisioned.contains(EndpointRole::kClient) ||
       !s.provisioned.contains(EndpointRole::kServer))) {
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
    crypto::Reader r(payload);
    const MboxMsg tag = tag_of(payload);
    (void)r.u8();
    const uint32_t sid = r.u32();

    if (tag == MboxMsg::kOpen) {
      const uint32_t n = r.u32();
      if (n == 0) return;  // malformed: a middlebox is never the endpoint
      std::vector<netsim::NodeId> rest;
      for (uint32_t i = 0; i < n; ++i) rest.push_back(r.u32());
      Session& s = sessions_[sid];
      ctx.alloc(512);
      s.prev = peer;
      s.next = rest.front();
      ctx.send_plain(s.next, encode_open(sid, std::vector<netsim::NodeId>(
                                                  rest.begin() + 1, rest.end())));
      return;
    }

    const auto it = sessions_.find(sid);
    if (it == sessions_.end()) return;
    Session& s = it->second;
    // Only accept traffic from the session's actual neighbors.
    if (peer != s.prev && peer != s.next) return;

    if (tag == MboxMsg::kHandshake) {
      const Direction dir = static_cast<Direction>(r.u8());
      forward(ctx, s, dir, payload);
      return;
    }
    if (tag == MboxMsg::kRecord) {
      const Direction dir = static_cast<Direction>(r.u8());
      const crypto::BytesView record = r.lv_view();
      if (!s.active) {
        if (policy_.fail_closed) {
          // No keys, fail-closed: an uninspectable record does not pass.
          ++blocked_;
          return;
        }
        // No keys, fail-open: the middlebox is blind — pass the
        // ciphertext through.
        ++opaque_forwarded_;
        forward(ctx, s, dir, payload);
        return;
      }
      auto& view = dir == Direction::kClientToServer ? s.c2s_view : s.s2c_view;
      auto& scanner = dir == Direction::kClientToServer ? s.c2s_scan : s.s2c_scan;
      // Stage the ciphertext in the reusable scratch and decrypt in place:
      // the relay hot path makes no per-record allocations, and the original
      // wire bytes stay untouched for the onward forward below.
      scratch_.assign(record.begin(), record.end());
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
      forward(ctx, s, dir, payload);
      return;
    }
  } catch (const std::exception&) {
    return;
  }
}

void DpiMiddleboxApp::on_secure_message(core::Ctx&, netsim::NodeId,
                                        crypto::BytesView payload) {
  try {
    crypto::Reader r(payload);
    if (static_cast<MboxSecureMsg>(r.u8()) != MboxSecureMsg::kProvision) {
      return;
    }
    const uint32_t sid = r.u32();
    const auto role = static_cast<EndpointRole>(r.u8());
    // Decoded before the session is touched: a malformed key leaves no
    // state behind to refuse the right key that follows.
    TlsKeyMaterial keys = TlsKeyMaterial::deserialize(r.lv());
    Session& s = sessions_[sid];
    if (s.keys.has_value() &&
        !crypto::ct_equal(s.keys->channel_key, keys.channel_key)) {
      return;  // conflicting keys: refuse
    }
    s.keys = std::move(keys);
    s.provisioned.insert(role);
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
