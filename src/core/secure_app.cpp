#include "core/secure_app.h"

#include <algorithm>

#include "core/ports.h"
#include "sgx/sealing.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace tenet::core {

namespace {
/// Timer tokens bind (peer, generation) so a firing that outlives the
/// handshake it was armed for — or a token forged by the untrusted host —
/// can never act on fresher state.
uint64_t retry_token(netsim::NodeId peer, uint32_t generation) {
  return (static_cast<uint64_t>(peer) << 32) | generation;
}

constexpr std::string_view kCheckpointLabel = "app.checkpoint";

/// Checkpoint-wrap magic for sharded apps: [magic | LV shard-vv | LV app].
/// Unsharded checkpoints stay the raw app bytes (byte-identical to before
/// sharding existed); the restore path only unwraps when the magic AND the
/// length structure match exactly.
constexpr uint32_t kShardCheckpointMagic = 0x53485244;  // "SHRD"

/// Modeled enclave heap bytes for one peer's state (attestation session,
/// channel keys and sequence state), charged when a handshake starts. A
/// constant rather than sizeof(PeerState), so the modeled cost and the
/// tables derived from it do not follow the emulator's host-side layout
/// (such as how Aes128 stores its key schedule). 1248 is the value the
/// published tables were derived with.
constexpr size_t kPeerStateHeapBytes = 1248;

/// Modeled enclave heap bytes for a shard replica, charged once when
/// sharding is enabled, plus one member-table entry per shard member.
/// Pinned for the same reason as kPeerStateHeapBytes: 480 and 8 were
/// sizeof(ShardReplica) and sizeof(ShardMember) when the published tables
/// were derived.
constexpr size_t kShardReplicaHeapBytes = 480;
constexpr size_t kShardMemberHeapBytes = 8;
}  // namespace

netsim::NodeId Ctx::self() const { return app_.self_; }

void Ctx::connect(netsim::NodeId peer) { app_.start_connect(env_, peer); }

void Ctx::send_secure(netsim::NodeId peer, crypto::BytesView payload) {
  // Request origin: an application-level secure send starts a trace unless
  // the caller is already inside one (e.g. responding to a delivery).
  TENET_TRACE_ROOT("app", "send_secure");
  auto it = app_.peers_.find(peer);
  if (it == app_.peers_.end() || !it->second.attested ||
      !it->second.channel.ready()) {
    throw std::logic_error("send_secure: peer not attested");
  }
  // Zero-copy record path: the record is sealed directly into the framed
  // send request, which then moves into the switchless ring — the sealed
  // bytes are written exactly once.
  netsim::RobustChannel& chan = it->second.channel;
  send_framed(peer, kPortSecure,
              netsim::RobustChannel::sealed_size(payload.size()),
              [&](std::span<uint8_t> out) { chan.seal_into(payload, out); });
  if (app_.recovery_.enabled && it->second.channel.needs_rekey()) {
    // Approaching nonce exhaustion: rekey before seal() starts throwing.
    app_.rehandshake_peer(env_, peer);
  }
}

void Ctx::send_frame(crypto::Bytes&& req) {
  // Fire-and-forget: under switchless mode the frame itself becomes the
  // ring slot (the kOcallSend handler returns nothing).
  env_.ocall_async(kOcallSend, std::move(req));
}

void Ctx::send_plain(netsim::NodeId peer, crypto::BytesView payload,
                     uint32_t port) {
  app_.raw_send(env_, peer, port == 0 ? kPortPlain : port, payload);
}

SecureApp::SecureApp(const sgx::Authority& authority,
                     sgx::AttestationConfig config)
    : authority_(authority), config_(config) {}

crypto::Bytes SecureApp::handle_call(uint32_t fn, crypto::BytesView arg,
                                     sgx::EnclaveEnv& env) {
  Ctx ctx(*this, env);
  switch (fn) {
    case kFnStart: {
      self_ = crypto::read_u32(arg, 0);
      on_start(ctx);
      return {};
    }
    case kFnDeliver: {
      crypto::Reader r(arg);
      const netsim::NodeId src = r.u32();
      const uint32_t port = r.u32();
      const crypto::Bytes payload = r.lv();
      deliver(env, src, port, payload);
      return {};
    }
    case kFnConnect: {
      start_connect(env, crypto::read_u32(arg, 0));
      return {};
    }
    case kFnControl: {
      crypto::Reader r(arg);
      const uint32_t subfn = r.u32();
      const crypto::Bytes payload = r.lv();
      return on_control(ctx, subfn, payload);
    }
    case kFnQuery:
      return query(crypto::read_u32(arg, 0));
    case kFnDisconnect:
      // Host-observed peer failure (e.g. the peer's machine rebooted and
      // its enclave lost all channel state): forget the peer so the next
      // connect() re-attests the fresh instance.
      drop_peer(crypto::read_u32(arg, 0));
      return {};
    case kFnTimer:
      on_timer(env, crypto::read_u64(arg, 0));
      return {};
    case kFnCheckpoint: {
      crypto::Bytes state = on_checkpoint(ctx);
      if (shard_ != nullptr) {
        // Sharded apps seal the version vector alongside the app state so a
        // restored replica provably remembers every version it observed —
        // the rollback-refusal check in ShardReplica depends on this.
        crypto::Bytes wrapped;
        crypto::append_u32(wrapped, kShardCheckpointMagic);
        crypto::append_lv(wrapped, shard_->checkpoint_state());
        crypto::append_lv(wrapped, state);
        state = std::move(wrapped);
      }
      if (state.empty()) return {};
      TENET_COUNT("app.checkpoints");
      return sgx::seal_data(env, crypto::to_bytes(kCheckpointLabel), state);
    }
    case kFnRestore: {
      const auto state =
          sgx::unseal_data(env, crypto::to_bytes(kCheckpointLabel), arg);
      if (!state.has_value()) return {};
      TENET_COUNT("app.restores");
      crypto::BytesView app_state = *state;
      // Unwrap a shard checkpoint (restores typically land before the host
      // re-issues the shard configure control; stash the vector until
      // enable_sharding runs).
      if (state->size() >= 12 &&
          crypto::read_u32(*state, 0) == kShardCheckpointMagic) {
        try {
          crypto::Reader r(app_state);
          (void)r.u32();
          crypto::Bytes shard_state = r.lv();
          const crypto::BytesView inner = r.lv_view();
          if (r.done()) {
            if (shard_ != nullptr) {
              shard_->restore_state(shard_state);
            } else {
              restored_shard_state_ = std::move(shard_state);
            }
            app_state = inner;
          }
        } catch (const std::exception&) {
          // Not a wrapped checkpoint after all: hand through unchanged.
        }
      }
      on_restore(ctx, app_state);
      crypto::Bytes ok;
      ok.push_back(1);
      return ok;
    }
    default:
      return {};
  }
}

void SecureApp::install_channel_key(PeerState& st, crypto::BytesView key,
                                    bool initiator) {
  if (st.channel.epoch() > 0) {
    ++rekeys_;
    // a = the channel epoch being replaced (1-based).
    TENET_EVENT(kRekey, self_, st.channel.epoch());
  }
  st.channel.install(key, initiator);
}

void SecureApp::schedule_retry(sgx::EnclaveEnv& env, netsim::NodeId peer,
                               PeerState& st) {
  const double delay = netsim::backoff_delay(recovery_, st.attempts, env.rng());
  crypto::Bytes req;
  crypto::append_u64(req, static_cast<uint64_t>(delay * 1e6));
  crypto::append_u64(req, retry_token(peer, st.generation));
  const crypto::Bytes res = env.ocall(kOcallScheduleTimer, req);
  // Iago note: the id comes from the untrusted host and is only ever
  // handed back to it (cancel); a lie costs us nothing but the timer.
  st.retry_timer = res.size() >= 8 ? crypto::read_u64(res, 0) : 0;
}

void SecureApp::cancel_retry(sgx::EnclaveEnv& env, PeerState& st) {
  ++st.generation;  // stale firings no-op even if the host never cancels
  if (st.retry_timer != 0) {
    crypto::Bytes req;
    crypto::append_u64(req, st.retry_timer);
    (void)env.ocall(kOcallCancelTimer, req);
    st.retry_timer = 0;
  }
  st.attempts = 0;
}

void SecureApp::reset_handshake(sgx::EnclaveEnv& env, PeerState& st) {
  cancel_retry(env, st);
  st.challenger.reset();
  st.target.reset();
  st.channel.reset();  // keeps the epoch count, drops the key
  st.attested = false;
  st.in_progress = false;
  st.challenge.clear();
  st.served_challenge.clear();
  st.served_response.clear();
}

void SecureApp::rehandshake_peer(sgx::EnclaveEnv& env, netsim::NodeId peer) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  TENET_COUNT("app.rehandshakes");
  ++rehandshakes_;
  reset_handshake(env, it->second);
  start_connect(env, peer);
}

void SecureApp::on_timer(sgx::EnclaveEnv& env, uint64_t token) {
  if (!recovery_.enabled) return;
  const auto peer = static_cast<netsim::NodeId>(token >> 32);
  const auto generation = static_cast<uint32_t>(token & 0xffffffffu);
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerState& st = it->second;
  if (st.generation != generation || st.attested || !st.in_progress ||
      !st.challenger.has_value()) {
    return;  // stale or forged firing
  }
  st.retry_timer = 0;
  if (st.attempts + 1 >= recovery_.max_attempts) {
    // Retry budget exhausted: give up so the app can route around.
    TENET_COUNT("app.peer_failures");
    ++peer_failures_;
    peers_.erase(it);
    Ctx ctx(*this, env);
    if (shard_ != nullptr) shard_->peer_failed(ctx, peer);
    on_peer_failed(ctx, peer);
    return;
  }
  ++st.attempts;
  ++attest_retries_;
  TENET_COUNT("app.attest_retries");
  {
    // The retry timer fired under the context captured when it was armed,
    // i.e. the original handshake's trace; mark the re-sent frame as a
    // retransmission so the analyzer can tell it from the first copy.
    TENET_TRACE_CONTEXT_FLAGS(telemetry::tracer().context(),
                              telemetry::TraceContext::kFlagRetx);
    TENET_SPAN("app", "retransmit_challenge");
    raw_send(env, peer, kPortAttestChallenge, st.challenge);
  }
  schedule_retry(env, peer, st);
}

void SecureApp::peer_attested_event(Ctx& ctx, netsim::NodeId peer) {
  if (shard_ != nullptr) shard_->peer_attested(ctx, peer);
  on_peer_attested(ctx, peer);
}

ShardReplica& SecureApp::enable_sharding(Ctx& ctx, ShardConfig cfg,
                                         ShardReplica::Hooks hooks) {
  ctx.alloc(kShardReplicaHeapBytes +
            cfg.members.size() * kShardMemberHeapBytes);
  shard_ = std::make_unique<ShardReplica>(*this, std::move(cfg),
                                          std::move(hooks));
  if (!restored_shard_state_.empty()) {
    shard_->restore_state(restored_shard_state_);
    restored_shard_state_.clear();
  }
  shard_->start(ctx);
  return *shard_;
}

void SecureApp::start_connect(sgx::EnclaveEnv& env, netsim::NodeId peer) {
  // Request origin: everything downstream of this handshake — challenge,
  // response, confirm, retries — joins the trace minted here.
  TENET_TRACE_ROOT("app", "connect");
  PeerState& st = peers_[peer];
  if (st.attested || st.in_progress) return;
  env.heap_alloc(kPeerStateHeapBytes);
  st.in_progress = true;
  st.challenger.emplace(authority_, config_, env.rng(),
                        config_.mutual ? &env : nullptr);
  ++attestations_initiated_;
  st.challenge = st.challenger->create_challenge();
  raw_send(env, peer, kPortAttestChallenge, st.challenge);
  if (recovery_.enabled) {
    st.attempts = 0;
    schedule_retry(env, peer, st);
  }
}

void SecureApp::deliver(sgx::EnclaveEnv& env, netsim::NodeId src,
                        uint32_t port, crypto::BytesView payload) {
  Ctx ctx(*this, env);
  switch (port) {
    case kPortAttestChallenge: {
      PeerState& st = peers_[src];
      if (st.attested) {
        // Attest once per peer (§5); ignore repeats. In recovery mode a
        // fresh challenge means the peer restarted and lost its channel
        // state — serve a new handshake. (A forged challenge can force
        // this too; that is a DoS-only move the threat model permits.)
        if (!recovery_.enabled) return;
        TENET_COUNT("app.rehandshakes");
        ++rehandshakes_;
        reset_handshake(env, st);
      }
      if (st.in_progress && st.challenger.has_value()) {
        // Cross-connect: both sides initiated simultaneously. Deterministic
        // tie-break: the lower node id keeps the challenger role; the
        // higher one yields and answers as target.
        if (self_ < src) return;
        st.challenger.reset();
        if (recovery_.enabled) cancel_retry(env, st);
      }
      if (st.target.has_value()) {
        if (recovery_.enabled &&
            std::equal(payload.begin(), payload.end(),
                       st.served_challenge.begin(),
                       st.served_challenge.end())) {
          // Duplicate or retransmitted challenge (our msg2 was lost):
          // replay the cached response instead of clobbering the session.
          raw_send(env, src, kPortAttestResponse, st.served_response);
          return;
        }
        st.target.reset();  // a new challenge replaces the old session
      }
      env.heap_alloc(kPeerStateHeapBytes);
      st.target.emplace(authority_, config_, env);
      const crypto::Bytes msg2 = st.target->handle_challenge(payload);
      if (msg2.empty()) {
        peers_.erase(src);  // rejected (bad request or failed mutual check)
        return;
      }
      ++attestations_served_;
      if (config_.mutual) st.info = st.target->peer();
      if (config_.use_dh) {
        install_channel_key(st, st.target->session_key("channel"),
                            /*initiator=*/false);
      } else {
        // Attestation-only mode: the peer is attested as soon as we reply.
        st.attested = true;
      }
      if (recovery_.enabled) {
        st.served_challenge.assign(payload.begin(), payload.end());
        st.served_response = msg2;
      }
      raw_send(env, src, kPortAttestResponse, msg2);
      if (!config_.use_dh) peer_attested_event(ctx, src);
      return;
    }
    case kPortAttestResponse: {
      const auto it = peers_.find(src);
      if (it == peers_.end() || !it->second.challenger.has_value()) return;
      PeerState& st = it->second;
      if (st.attested) return;  // stale response for an abandoned session
      st.info = st.challenger->consume_response(payload);
      st.in_progress = false;
      if (!st.info.ok) {
        peers_.erase(src);
        return;
      }
      st.attested = true;
      if (recovery_.enabled) cancel_retry(env, st);
      if (config_.use_dh) {
        install_channel_key(st, st.challenger->session_key("channel"),
                            /*initiator=*/true);
        raw_send(env, src, kPortAttestConfirm, st.challenger->create_confirm());
      }
      peer_attested_event(ctx, src);
      return;
    }
    case kPortAttestConfirm: {
      const auto it = peers_.find(src);
      if (it == peers_.end() || !it->second.target.has_value()) return;
      PeerState& st = it->second;
      if (st.attested) return;  // duplicate confirm
      if (!st.target->verify_confirm(payload)) {
        peers_.erase(src);
        return;
      }
      st.attested = true;
      st.in_progress = false;
      peer_attested_event(ctx, src);
      return;
    }
    case kPortChannelReset: {
      // Unauthenticated NACK: the peer claims it cannot open our records
      // (it restarted and lost the key). We only ever react by starting a
      // fresh attestation, so a forged reset buys an attacker nothing but
      // one handshake's worth of work — DoS-class, per the threat model.
      if (!recovery_.enabled) return;
      const auto it = peers_.find(src);
      if (it == peers_.end() || !it->second.attested) return;
      rehandshake_peer(env, src);
      return;
    }
    case kPortSecure: {
      const auto it = peers_.find(src);
      if (it == peers_.end() || !it->second.channel.ready()) {
        ++rejected_records_;
        if (recovery_.enabled) {
          // We cannot even parse the record — tell the sender to re-attest.
          TENET_COUNT("app.channel_resets_sent");
          raw_send(env, src, kPortChannelReset, {});
        }
        return;
      }
      PeerState& st = it->second;
      if (!st.attested && !(recovery_.enabled && st.target.has_value())) {
        ++rejected_records_;
        return;
      }
      auto plaintext = st.channel.open(payload);
      if (!plaintext.has_value()) {
        ++rejected_records_;  // tampered / replayed / misdirected record
        if (recovery_.enabled && st.attested &&
            st.channel.consecutive_failures() >=
                recovery_.mac_failure_threshold) {
          // A burst of MAC failures on an established channel: the peer
          // likely rekeyed or restarted behind our back. Re-attest.
          rehandshake_peer(env, src);
        }
        return;
      }
      if (!st.attested) {
        // Implicit key confirmation: the confirm (msg3) was lost, but a
        // record that authenticates under the session key proves the
        // challenger holds it.
        st.attested = true;
        st.in_progress = false;
        peer_attested_event(ctx, src);
      }
      env.heap_alloc(plaintext->size());
      if (shard_ != nullptr && is_shard_payload(*plaintext) &&
          shard_->handle_secure(ctx, src, *plaintext)) {
        return;  // replication traffic never reaches the application hook
      }
      on_secure_message(ctx, src, *plaintext);
      return;
    }
    default:
      on_plain_message(ctx, src, payload);
      return;
  }
}

void SecureApp::raw_send(sgx::EnclaveEnv& env, netsim::NodeId dst,
                         uint32_t port, crypto::BytesView payload) {
  crypto::Bytes req;
  crypto::append_u32(req, dst);
  crypto::append_u32(req, port);
  crypto::append_lv(req, payload);
  // Fire-and-forget: under switchless mode this is the hot path that
  // skips the EEXIT/ERESUME pair (the kOcallSend handler returns nothing).
  env.ocall_async(kOcallSend, req);
}

crypto::Bytes SecureApp::query(uint32_t what) const {
  uint64_t value = 0;
  switch (what) {
    case kQueryAttestationsInitiated: value = attestations_initiated_; break;
    case kQueryAttestationsServed: value = attestations_served_; break;
    case kQueryAttestedPeerCount: value = attested_peers().size(); break;
    case kQueryRejectedRecords: value = rejected_records_; break;
    case kQueryAttestRetries: value = attest_retries_; break;
    case kQueryRehandshakes: value = rehandshakes_; break;
    case kQueryRekeys: value = rekeys_; break;
    case kQueryPeerFailures: value = peer_failures_; break;
    case kQueryShardServing:
      value = shard_ == nullptr || shard_->serving() ? 1 : 0;
      break;
    case kQueryShardJoined:
      value = shard_ == nullptr || shard_->joined() ? 1 : 0;
      break;
    case kQueryShardVersionTotal:
      value = shard_ != nullptr ? shard_->versions().total() : 0;
      break;
    case kQueryShardEntriesApplied:
      value = shard_ != nullptr ? shard_->entries_applied() : 0;
      break;
    case kQueryShardRollbacksRefused:
      value = shard_ != nullptr ? shard_->rollbacks_refused() : 0;
      break;
    case kQueryShardRejectedPeers:
      value = shard_ != nullptr ? shard_->rejected_peers() : 0;
      break;
    default: break;
  }
  crypto::Bytes out;
  crypto::append_u64(out, value);
  return out;
}

bool SecureApp::is_attested(netsim::NodeId peer) const {
  const auto it = peers_.find(peer);
  return it != peers_.end() && it->second.attested;
}

const sgx::AttestationOutcome* SecureApp::peer_info(
    netsim::NodeId peer) const {
  const auto it = peers_.find(peer);
  return it != peers_.end() && it->second.info.ok ? &it->second.info : nullptr;
}

std::vector<netsim::NodeId> SecureApp::attested_peers() const {
  std::vector<netsim::NodeId> out;
  for (const auto& [id, st] : peers_) {
    if (st.attested) out.push_back(id);
  }
  return out;
}

}  // namespace tenet::core
