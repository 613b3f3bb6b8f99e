#include "tor/relay.h"

#include "telemetry/telemetry.h"

namespace tenet::tor {

namespace {
/// Modeled enclave heap bytes for one relay circuit (hop keys, both
/// circuit ids and the cell sequence numbers), charged when a CREATE is
/// accepted. A constant rather than sizeof(Circuit), so the modeled cost
/// does not follow the emulator's host-side layout; 96 is the value the
/// published tables were derived with.
constexpr size_t kCircuitHeapBytes = 96;
}  // namespace

crypto::Bytes encode_extend(netsim::NodeId target,
                            crypto::BytesView client_dh_pub) {
  crypto::Bytes out;
  out.push_back(static_cast<uint8_t>(RelaySub::kExtend));
  crypto::append_u32(out, target);
  crypto::append_lv(out, client_dh_pub);
  return out;
}

crypto::Bytes encode_data(netsim::NodeId destination, crypto::BytesView req) {
  crypto::Bytes out;
  out.push_back(static_cast<uint8_t>(RelaySub::kData));
  crypto::append_u32(out, destination);
  crypto::append_lv(out, req);
  return out;
}

RelayApp::RelayApp(const sgx::Authority& authority,
                   sgx::AttestationConfig config, std::string nickname,
                   bool exit_relay, bool claims_sgx)
    : SecureApp(authority, config),
      nickname_(std::move(nickname)),
      exit_relay_(exit_relay),
      claims_sgx_(claims_sgx) {}

const crypto::DhKeyPair& RelayApp::onion_key(core::Ctx& ctx) {
  if (!onion_key_.has_value()) {
    onion_key_.emplace(crypto::DhGroup::oakley_group2(), ctx.rng());
  }
  return *onion_key_;
}

void RelayApp::on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                                crypto::BytesView payload) {
  try {
    switch (message_tag(payload)) {
      case TorMsg::kCell:
        handle_cell(ctx, peer, Cell::deserialize(message_body(payload)));
        return;
      case TorMsg::kExitResponse:
        handle_exit_response(ctx, peer, message_body(payload));
        return;
      default:
        return;
    }
  } catch (const std::invalid_argument&) {
    return;  // malformed traffic from the untrusted network: drop
  } catch (const std::out_of_range&) {
    return;
  }
}

void RelayApp::on_secure_message(core::Ctx& ctx, netsim::NodeId peer,
                                 crypto::BytesView payload) {
  // Link protection variant: same protocol over an attested channel.
  on_plain_message(ctx, peer, payload);
}

void RelayApp::handle_cell(core::Ctx& ctx, netsim::NodeId from,
                           const Cell& cell) {
  TENET_COUNT("app.tor.cells");
  switch (cell.command) {
    case CellCommand::kCreate:
      TENET_COUNT("app.tor.circuit_creates");
      handle_create(ctx, from, cell);
      return;
    case CellCommand::kCreated:
      handle_created(ctx, from, cell);
      return;
    case CellCommand::kRelayForward:
      TENET_COUNT("app.tor.relayed_cells");
      handle_forward(ctx, from, cell);
      return;
    case CellCommand::kRelayBackward:
      TENET_COUNT("app.tor.relayed_cells");
      handle_backward(ctx, from, cell);
      return;
    case CellCommand::kDestroy: {
      // Tear down in both directions.
      const auto pit = by_prev_.find({from, cell.circuit});
      const auto nit = by_next_.find({from, cell.circuit});
      const uint32_t index = pit != by_prev_.end()
                                 ? pit->second
                                 : nit != by_next_.end() ? nit->second : 0;
      const auto cit = circuits_.find(index);
      if (cit == circuits_.end()) return;
      const Circuit circ = cit->second;
      circuits_.erase(cit);
      by_prev_.erase({circ.prev_node, circ.prev_circ});
      by_next_.erase({circ.next_node, circ.next_circ});
      Cell destroy;
      destroy.command = CellCommand::kDestroy;
      if (from == circ.prev_node && circ.next_node != netsim::kInvalidNode) {
        destroy.circuit = circ.next_circ;
        send_cell(ctx, circ.next_node, destroy);
      } else if (from == circ.next_node) {
        destroy.circuit = circ.prev_circ;
        send_cell(ctx, circ.prev_node, destroy);
      }
      return;
    }
    default:
      return;
  }
}

void RelayApp::handle_create(core::Ctx& ctx, netsim::NodeId from,
                             const Cell& cell) {
  if (by_prev_.contains({from, cell.circuit})) return;  // circ id reuse
  crypto::Bytes shared;
  try {
    shared = onion_key(ctx).shared_secret(crypto::BytesView(cell.payload));
  } catch (const std::invalid_argument&) {
    return;  // degenerate DH value: refuse the handshake
  }
  Circuit circ;
  circ.prev_node = from;
  circ.prev_circ = cell.circuit;
  circ.keys = HopKeys::derive(shared);
  ctx.alloc(kCircuitHeapBytes);

  const crypto::Digest confirm =
      crypto::hmac_sha256(circ.keys.digest_key, crypto::to_bytes("created"));
  const uint32_t index = next_index_++;
  by_prev_[{from, cell.circuit}] = index;
  circuits_[index] = std::move(circ);

  Cell reply;
  reply.circuit = cell.circuit;
  reply.command = CellCommand::kCreated;
  crypto::append_lv(reply.payload, crypto::digest_bytes(confirm));
  send_cell(ctx, from, reply);
}

void RelayApp::handle_created(core::Ctx& ctx, netsim::NodeId from,
                              const Cell& cell) {
  const auto it = by_next_.find({from, cell.circuit});
  if (it == by_next_.end()) return;
  Circuit& circ = circuits_.at(it->second);
  if (!circ.awaiting_extended) return;
  circ.awaiting_extended = false;

  // Relay the confirmation back as an EXTENDED sealed under OUR hop keys
  // (the client recognizes it at our layer).
  crypto::Bytes data;
  data.push_back(static_cast<uint8_t>(RelaySub::kExtended));
  crypto::append(data, cell.payload);  // LV confirm from the new hop
  RelayPayload payload;
  payload.stream = 0;
  payload.data = std::move(data);
  send_backward_payload(ctx, circ, payload);
}

void RelayApp::handle_forward(core::Ctx& ctx, netsim::NodeId from,
                              const Cell& cell) {
  const auto it = by_prev_.find({from, cell.circuit});
  if (it == by_prev_.end()) return;
  Circuit& circ = circuits_.at(it->second);
  const crypto::Bytes peeled =
      OnionCrypt::peel_forward(circ.keys, cell.payload, circ.fwd_seq++);

  const auto recognized = RelayPayload::open(circ.keys, peeled);
  if (recognized.has_value()) {
    handle_recognized(ctx, circ, it->second, *recognized);
    return;
  }
  if (circ.next_node == netsim::kInvalidNode) return;  // garbled at last hop
  Cell fwd;
  fwd.circuit = circ.next_circ;
  fwd.command = CellCommand::kRelayForward;
  fwd.payload = peeled;
  send_cell(ctx, circ.next_node, fwd);
}

void RelayApp::handle_recognized(core::Ctx& ctx, Circuit& circ, uint32_t index,
                                 const RelayPayload& payload) {
  if (payload.data.empty()) return;
  switch (static_cast<RelaySub>(payload.data[0])) {
    case RelaySub::kExtend: {
      crypto::Reader r(crypto::BytesView(payload.data).subspan(1));
      const netsim::NodeId target = r.u32();
      const crypto::Bytes client_pub = r.lv();
      circ.next_node = target;
      circ.next_circ = next_out_circ_++;
      circ.awaiting_extended = true;
      by_next_[{target, circ.next_circ}] = index;

      Cell create;
      create.circuit = circ.next_circ;
      create.command = CellCommand::kCreate;
      create.payload = client_pub;
      send_cell(ctx, target, create);
      return;
    }
    case RelaySub::kData: {
      if (!exit_relay_) return;  // we are not an exit: refuse
      crypto::Reader r(crypto::BytesView(payload.data).subspan(1));
      const netsim::NodeId dest = r.u32();
      const crypto::Bytes request = r.lv();

      // ---- The exit sees plaintext here (the §3.2 attack surface) ----
      observe_exit_plaintext(request);
      const crypto::Bytes outbound = transform_exit_request(request);

      const uint32_t esid = next_exit_stream_++;
      exit_streams_[esid] = {index, payload.stream};
      crypto::Bytes req;
      crypto::append_u32(req, esid);
      crypto::append_lv(req, outbound);
      ctx.send_plain(dest, tag_message(TorMsg::kExitRequest, req));
      return;
    }
    default:
      return;
  }
}

void RelayApp::handle_exit_response(core::Ctx& ctx, netsim::NodeId,
                                    crypto::BytesView body) {
  crypto::Reader r(body);
  const uint32_t esid = r.u32();
  const crypto::Bytes response = r.lv();
  const auto it = exit_streams_.find(esid);
  if (it == exit_streams_.end()) return;
  const auto [index, client_stream] = it->second;
  exit_streams_.erase(it);
  const auto cit = circuits_.find(index);
  if (cit == circuits_.end()) return;

  observe_exit_plaintext(response);
  const crypto::Bytes inbound = transform_exit_response(response);

  RelayPayload payload;
  payload.stream = client_stream;
  payload.data.push_back(static_cast<uint8_t>(RelaySub::kDataReply));
  crypto::append_lv(payload.data, inbound);
  send_backward_payload(ctx, cit->second, payload);
}

void RelayApp::handle_backward(core::Ctx& ctx, netsim::NodeId from,
                               const Cell& cell) {
  const auto it = by_next_.find({from, cell.circuit});
  if (it == by_next_.end()) return;
  Circuit& circ = circuits_.at(it->second);
  const crypto::Bytes layered =
      OnionCrypt::add_backward(circ.keys, cell.payload, circ.bwd_seq++);
  Cell back;
  back.circuit = circ.prev_circ;
  back.command = CellCommand::kRelayBackward;
  back.payload = layered;
  send_cell(ctx, circ.prev_node, back);
}

void RelayApp::send_backward_payload(core::Ctx& ctx, Circuit& circ,
                                     const RelayPayload& payload) {
  const crypto::Bytes sealed = payload.seal(circ.keys);
  const crypto::Bytes layered =
      OnionCrypt::add_backward(circ.keys, sealed, circ.bwd_seq++);
  Cell back;
  back.circuit = circ.prev_circ;
  back.command = CellCommand::kRelayBackward;
  back.payload = layered;
  send_cell(ctx, circ.prev_node, back);
}

void RelayApp::send_cell(core::Ctx& ctx, netsim::NodeId to, const Cell& cell) {
  ctx.send_plain(to, tag_message(TorMsg::kCell, cell.serialize()));
}

crypto::Bytes RelayApp::on_control(core::Ctx& ctx, uint32_t subfn,
                                   crypto::BytesView arg) {
  switch (subfn) {
    case kCtlPublishDescriptor: {
      const netsim::NodeId authority_node = crypto::read_u32(arg, 0);
      RelayDescriptor desc;
      desc.node = ctx.self();
      desc.nickname = nickname_;
      desc.onion_public = onion_key(ctx).public_bytes();
      desc.exit = exit_relay_;
      desc.claims_sgx = claims_sgx_;
      ctx.send_plain(authority_node,
                     tag_message(TorMsg::kDescriptorUpload, desc.serialize()));
      return {};
    }
    case kCtlGetDescriptor: {
      RelayDescriptor desc;
      desc.node = ctx.self();
      desc.nickname = nickname_;
      desc.onion_public = onion_key(ctx).public_bytes();
      desc.exit = exit_relay_;
      desc.claims_sgx = claims_sgx_;
      return desc.serialize();
    }
    case kCtlCircuitCount: {
      crypto::Bytes out;
      crypto::append_u64(out, circuits_.size());
      return out;
    }
    default:
      return {};
  }
}

}  // namespace tenet::tor
