#include "tor/directory.h"

#include "sgx/sealing.h"

namespace tenet::tor {

crypto::Bytes encode_vote(uint32_t epoch,
                          const std::vector<RelayDescriptor>& relays) {
  crypto::Bytes body;
  crypto::append_u32(body, epoch);
  crypto::append_u32(body, static_cast<uint32_t>(relays.size()));
  for (const RelayDescriptor& d : relays) crypto::append_lv(body, d.serialize());
  return tag_message(TorMsg::kVote, body);
}

AuthorityApp::AuthorityApp(const sgx::Authority& authority,
                           sgx::AttestationConfig config,
                           AuthorityPolicy policy)
    : SecureApp(authority, config), policy_(policy) {}

std::vector<RelayDescriptor> AuthorityApp::cast_vote() {
  std::vector<RelayDescriptor> vote;
  vote.reserve(admitted_.size());
  for (const auto& [node, desc] : admitted_) vote.push_back(desc);
  return vote;
}

void AuthorityApp::on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                                    crypto::BytesView payload) {
  try {
    switch (message_tag(payload)) {
      case TorMsg::kDescriptorUpload:
        handle_upload(ctx, message_body(payload));
        return;
      case TorMsg::kConsensusRequest:
        handle_consensus_request(ctx, peer, /*over_secure_channel=*/false);
        return;
      case TorMsg::kVote:
        // Plaintext votes are acceptable only when this deployment does
        // not require attested authority channels. A subverted authority
        // trying to inject votes out-of-band is ignored under SGX.
        handle_vote(ctx, peer, message_body(payload),
                    /*over_secure_channel=*/false);
        return;
      default:
        return;
    }
  } catch (const std::exception&) {
    return;
  }
}

void AuthorityApp::on_secure_message(core::Ctx& ctx, netsim::NodeId peer,
                                     crypto::BytesView payload) {
  try {
    switch (message_tag(payload)) {
      case TorMsg::kVote:
        handle_vote(ctx, peer, message_body(payload),
                    /*over_secure_channel=*/true);
        return;
      case TorMsg::kConsensusRequest:
        handle_consensus_request(ctx, peer, /*over_secure_channel=*/true);
        return;
      default:
        return;
    }
  } catch (const std::exception&) {
    return;
  }
}

void AuthorityApp::handle_upload(core::Ctx& ctx, crypto::BytesView body) {
  RelayDescriptor desc = RelayDescriptor::deserialize(body);
  const netsim::NodeId node = desc.node;
  if (admitted_.contains(node)) return;
  ctx.alloc(128 + desc.onion_public.size());
  const bool auto_admit = policy_.auto_admit_sgx && desc.claims_sgx;
  pending_[node] = std::move(desc);
  if (auto_admit) {
    // §3.2: attest the relay; admission happens in on_peer_attested once
    // the enclave integrity check passes. A modified relay never passes.
    ctx.connect(node);
  }
  // Otherwise: manual path — wait for the operator's approval vote.
}

void AuthorityApp::on_peer_attested(core::Ctx&, netsim::NodeId peer) {
  const auto it = pending_.find(peer);
  if (it != pending_.end() && policy_.auto_admit_sgx &&
      it->second.claims_sgx) {
    admitted_[peer] = std::move(it->second);
    pending_.erase(it);
    return;
  }
  // Otherwise: a co-authority completing the attested voting mesh.
  co_authorities_.insert(peer);
}

void AuthorityApp::handle_vote(core::Ctx& ctx, netsim::NodeId peer,
                               crypto::BytesView body,
                               bool over_secure_channel) {
  if (policy_.secure_votes && !over_secure_channel) return;
  if (policy_.secure_votes && !co_authorities_.contains(peer)) return;
  crypto::Reader r(body);
  const uint32_t epoch = r.u32();
  if (epoch != epoch_) return;
  const uint32_t n = r.u32();
  std::vector<RelayDescriptor> relays;
  for (uint32_t i = 0; i < n; ++i) {
    relays.push_back(RelayDescriptor::deserialize(r.lv()));
  }
  ctx.alloc(64 * relays.size());
  votes_[peer] = std::move(relays);
  maybe_finalize(ctx);
}

void AuthorityApp::maybe_finalize(core::Ctx&) {
  // Own vote + received votes; finalize when all expected votes arrived.
  if (total_authorities_ == 0) return;
  if (votes_.size() + 1 < total_authorities_) return;

  // Majority rule: a relay enters the consensus if more than half of the
  // authorities voted for it.
  std::map<netsim::NodeId, std::pair<size_t, RelayDescriptor>> tally;
  auto count = [&tally](const std::vector<RelayDescriptor>& vote) {
    for (const RelayDescriptor& d : vote) {
      auto [it, inserted] = tally.emplace(d.node, std::make_pair(1u, d));
      if (!inserted) ++it->second.first;
    }
  };
  count(cast_vote());
  for (const auto& [voter, vote] : votes_) count(vote);

  Consensus consensus;
  consensus.epoch = epoch_;
  for (const auto& [node, entry] : tally) {
    if (entry.first * 2 > total_authorities_) {
      consensus.relays.push_back(entry.second);
    }
  }
  consensus_ = finalize_consensus(std::move(consensus));
}

void AuthorityApp::handle_consensus_request(core::Ctx& ctx,
                                            netsim::NodeId peer,
                                            bool over_secure_channel) {
  if (!consensus_.has_value()) return;
  const crypto::Bytes reply =
      tag_message(TorMsg::kConsensusResponse, consensus_->serialize());
  if (over_secure_channel) {
    ctx.send_secure(peer, reply);
  } else {
    ctx.send_plain(peer, reply);
  }
}

crypto::Bytes AuthorityApp::on_control(core::Ctx& ctx, uint32_t subfn,
                                       crypto::BytesView arg) {
  switch (subfn) {
    case kCtlApproveRelay: {
      const netsim::NodeId node = crypto::read_u32(arg, 0);
      const auto it = pending_.find(node);
      if (it != pending_.end()) {
        admitted_[node] = std::move(it->second);
        pending_.erase(it);
      }
      return {};
    }
    case kCtlAttestPeers: {
      crypto::Reader r(arg);
      const uint32_t n = r.u32();
      for (uint32_t i = 0; i < n; ++i) {
        const netsim::NodeId peer = r.u32();
        if (is_attested(peer)) {
          co_authorities_.insert(peer);
        } else {
          ctx.connect(peer);
        }
      }
      return {};
    }
    case kCtlStartVote: {
      crypto::Reader r(arg);
      epoch_ = r.u32();
      total_authorities_ = r.u32();
      vote_targets_.assign(co_authorities_.begin(), co_authorities_.end());
      votes_.clear();
      consensus_.reset();
      const crypto::Bytes vote = encode_vote(epoch_, cast_vote());
      if (policy_.secure_votes) {
        for (const netsim::NodeId peer : vote_targets_) {
          ctx.send_secure(peer, vote);
        }
      } else {
        // Baseline: votes go to whatever peers the host configured.
        crypto::Reader rest(arg);
        (void)rest.u32();
        (void)rest.u32();
        while (rest.remaining() >= 4) {
          ctx.send_plain(rest.u32(), vote);
        }
      }
      maybe_finalize(ctx);
      return {};
    }
    case kCtlGetConsensus2:
      return consensus_.has_value() ? consensus_->serialize() : crypto::Bytes{};
    case kCtlAdmittedCount: {
      crypto::Bytes out;
      crypto::append_u64(out, admitted_.size());
      return out;
    }
    case kCtlSealState:
      // §3.2: authorities "keep authority keys and list of Tor nodes
      // inside the enclaves" — sealed storage lets that state survive a
      // restart without ever being visible to the host.
      return sgx::seal_data(ctx.env(), crypto::to_bytes("dirauth.admitted"),
                            serialize_admitted());
    case kCtlRestoreState: {
      crypto::Bytes out;
      const auto state = sgx::unseal_data(
          ctx.env(), crypto::to_bytes("dirauth.admitted"), arg);
      out.push_back(state.has_value() && load_admitted(*state) ? 1 : 0);
      return out;
    }
    default:
      return {};
  }
}

crypto::Bytes AuthorityApp::serialize_admitted() const {
  crypto::Bytes state;
  crypto::append_u32(state, static_cast<uint32_t>(admitted_.size()));
  for (const auto& [node, desc] : admitted_) {
    crypto::append_lv(state, desc.serialize());
  }
  return state;
}

bool AuthorityApp::load_admitted(crypto::BytesView state) {
  // Parse fully before inserting: a malformed blob (a corrupted sealed
  // state or checkpoint) must leave the admitted set untouched.
  std::vector<RelayDescriptor> parsed;
  try {
    crypto::Reader r(state);
    const uint32_t n = r.u32();
    parsed.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      parsed.push_back(RelayDescriptor::deserialize(r.lv()));
    }
  } catch (const std::exception&) {
    return false;
  }
  for (RelayDescriptor& d : parsed) {
    const netsim::NodeId node = d.node;
    admitted_[node] = std::move(d);
  }
  return true;
}

crypto::Bytes AuthorityApp::on_checkpoint(core::Ctx&) {
  // The generic checkpoint path (kFnCheckpoint) seals this for us under
  // the app-checkpoint label; EnclaveNode::recover feeds it back.
  return serialize_admitted();
}

void AuthorityApp::on_restore(core::Ctx&, crypto::BytesView state) {
  (void)load_admitted(state);
}

}  // namespace tenet::tor
