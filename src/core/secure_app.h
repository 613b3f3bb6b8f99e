// SecureApp — the paper's design pattern as a reusable trusted base class.
//
// Every case study in §3 follows the same skeleton: run the application
// inside an enclave, remote-attest peers on first contact, bootstrap a
// secure channel from the attestation's DH exchange, and exchange all
// sensitive data over that channel. SecureApp implements the skeleton;
// applications (inter-domain controller, Tor relays/authorities,
// middleboxes) subclass it and speak through on_secure_message /
// send_secure.
//
// Attestation happens once per peer ("remote attestation occurs only at
// the beginning when two parties communicate for the first time", §5) and
// the counts are exposed for the Table 3 reproduction.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>

#include "core/shard_group.h"
#include "netsim/robust_channel.h"
#include "netsim/secure_channel.h"
#include "netsim/sim.h"
#include "sgx/attestation.h"
#include "sgx/enclave.h"

namespace tenet::core {

class SecureApp;

/// Per-call context handed to application virtuals. Valid only for the
/// duration of the call (it wraps the live EnclaveEnv).
class Ctx {
 public:
  Ctx(SecureApp& app, sgx::EnclaveEnv& env) : app_(app), env_(env) {}

  /// This node's network address.
  [[nodiscard]] netsim::NodeId self() const;

  /// Starts attestation toward `peer` (no-op if already attested or in
  /// progress). on_peer_attested fires when the handshake completes.
  void connect(netsim::NodeId peer);

  /// Sends over the established secure channel; throws std::logic_error
  /// if the peer is not attested yet.
  void send_secure(netsim::NodeId peer, crypto::BytesView payload);

  /// Sends without protection (bootstrap / baseline traffic).
  void send_plain(netsim::NodeId peer, crypto::BytesView payload,
                  uint32_t port = 0);

  /// Zero-copy framed send: builds the complete send request
  /// ([dst][port][len] + payload_len payload bytes) in one buffer, hands
  /// the payload region to `fill` (e.g. SecureChannel::seal_into), then
  /// moves the buffer into the ocall ring — no intermediate record
  /// allocation and no slot copy. Behaviour on the wire is identical to
  /// send_plain(peer, <filled bytes>, port).
  template <typename Fill>
  void send_framed(netsim::NodeId peer, uint32_t port, size_t payload_len,
                   Fill&& fill) {
    crypto::Bytes req;
    req.reserve(12 + payload_len);
    crypto::append_u32(req, peer);
    crypto::append_u32(req, port);
    crypto::append_u32(req, static_cast<uint32_t>(payload_len));
    req.resize(12 + payload_len);
    fill(std::span<uint8_t>(req.data() + 12, payload_len));
    send_frame(std::move(req));
  }

  /// Records `bytes` of retained in-enclave state (EAUG/EACCEPT path).
  void alloc(size_t bytes) { env_.heap_alloc(bytes); }

  [[nodiscard]] crypto::Drbg& rng() { return env_.rng(); }
  [[nodiscard]] sgx::EnclaveEnv& env() { return env_; }
  [[nodiscard]] SecureApp& app() { return app_; }

 private:
  /// Hands a fully framed send request to the ocall layer (move form).
  void send_frame(crypto::Bytes&& req);

  SecureApp& app_;
  sgx::EnclaveEnv& env_;
};

class SecureApp : public sgx::EnclaveApp {
 public:
  SecureApp(const sgx::Authority& authority, sgx::AttestationConfig config);

  /// Core dispatch; applications override the on_* hooks instead.
  crypto::Bytes handle_call(uint32_t fn, crypto::BytesView arg,
                            sgx::EnclaveEnv& env) final;

  /// Opts this app into fault recovery: challenge retransmission with
  /// exponential backoff + jitter, re-attestation of restarted peers
  /// (channel-reset NACKs, retried handshakes), MAC-failure rekeying, and
  /// proactive rekey before nonce exhaustion. Off by default — a
  /// non-robust app performs zero timer ocalls and zero extra RNG draws,
  /// so existing runs are byte-identical.
  void enable_recovery(const netsim::RetryPolicy& policy) {
    recovery_ = policy;
    recovery_.enabled = true;
  }

  /// The shard replica, when the host configured one (app-defined control
  /// path calls enable_sharding). Null for singleton deployments.
  [[nodiscard]] ShardReplica* shard() { return shard_.get(); }
  [[nodiscard]] const ShardReplica* shard() const { return shard_.get(); }

  // --- Introspection ---
  [[nodiscard]] bool is_attested(netsim::NodeId peer) const;
  [[nodiscard]] const sgx::AttestationOutcome* peer_info(
      netsim::NodeId peer) const;
  [[nodiscard]] std::vector<netsim::NodeId> attested_peers() const;

 protected:
  // --- Application hooks ---
  virtual void on_start(Ctx& ctx) { (void)ctx; }
  /// Fires on both sides when a peer's attestation completes.
  virtual void on_peer_attested(Ctx& ctx, netsim::NodeId peer) {
    (void)ctx;
    (void)peer;
  }
  /// A record arrived on the secure channel and authenticated correctly.
  virtual void on_secure_message(Ctx& ctx, netsim::NodeId peer,
                                 crypto::BytesView payload) = 0;
  /// Unprotected traffic (port kPortPlain).
  virtual void on_plain_message(Ctx& ctx, netsim::NodeId peer,
                                crypto::BytesView payload) {
    (void)ctx;
    (void)peer;
    (void)payload;
  }
  /// App-specific host ecalls (kFnControl).
  virtual crypto::Bytes on_control(Ctx& ctx, uint32_t subfn,
                                   crypto::BytesView arg) {
    (void)ctx;
    (void)subfn;
    (void)arg;
    return {};
  }
  /// Serializes app state for a sealed checkpoint (kFnCheckpoint). Return
  /// empty to opt out; the runtime seals non-empty state so only the same
  /// enclave identity on the same platform can read it back.
  virtual crypto::Bytes on_checkpoint(Ctx& ctx) {
    (void)ctx;
    return {};
  }
  /// Reloads state produced by on_checkpoint after a restart (kFnRestore,
  /// called only when the sealed blob authenticated).
  virtual void on_restore(Ctx& ctx, crypto::BytesView state) {
    (void)ctx;
    (void)state;
  }
  /// The retry budget for `peer` ran out; its state has been dropped.
  virtual void on_peer_failed(Ctx& ctx, netsim::NodeId peer) {
    (void)ctx;
    (void)peer;
  }

  /// Joins this app to a shard group (idempotent reconfigure). Starts ring
  /// attestation, replays any shard state carried by an earlier restored
  /// checkpoint, and from here on routes shard-tagged secure payloads
  /// (0xE0..0xEF) to the replica instead of on_secure_message. A 1-member
  /// group is inert: zero connects, zero RNG draws, zero extra messages —
  /// unsharded runs stay byte-identical.
  ShardReplica& enable_sharding(Ctx& ctx, ShardConfig cfg,
                                ShardReplica::Hooks hooks);

 private:
  friend class Ctx;

  struct PeerState {
    std::optional<sgx::ChallengerSession> challenger;
    std::optional<sgx::TargetSession> target;
    netsim::RobustChannel channel;
    sgx::AttestationOutcome info;
    bool attested = false;
    bool in_progress = false;
    // --- Recovery bookkeeping (unused when recovery is disabled) ---
    uint32_t attempts = 0;        // challenge (re)transmissions so far
    uint32_t generation = 0;      // bumped to invalidate in-flight timers
    uint64_t retry_timer = 0;     // host timer id for the pending retry
    crypto::Bytes challenge;      // cached msg1 for retransmission
    crypto::Bytes served_challenge;  // target side: last challenge seen...
    crypto::Bytes served_response;   // ...and the msg2 we answered with
  };

  void start_connect(sgx::EnclaveEnv& env, netsim::NodeId peer);
  /// Fans an attestation-complete event out to the shard replica (flushes
  /// queued replication traffic) before the application hook runs.
  void peer_attested_event(Ctx& ctx, netsim::NodeId peer);
  void drop_peer(netsim::NodeId peer) { peers_.erase(peer); }
  void deliver(sgx::EnclaveEnv& env, netsim::NodeId src, uint32_t port,
               crypto::BytesView payload);
  void raw_send(sgx::EnclaveEnv& env, netsim::NodeId dst, uint32_t port,
                crypto::BytesView payload);
  crypto::Bytes query(uint32_t what) const;

  // --- Recovery machinery (all no-ops unless recovery_.enabled) ---
  /// Installs a session key on the peer's channel, counting rekeys.
  void install_channel_key(PeerState& st, crypto::BytesView key,
                           bool initiator);
  /// Arms the backoff timer for the next challenge retransmission.
  void schedule_retry(sgx::EnclaveEnv& env, netsim::NodeId peer,
                      PeerState& st);
  /// Invalidates any pending retry timer for `st`.
  void cancel_retry(sgx::EnclaveEnv& env, PeerState& st);
  /// Returns `st` to the unattested state (keeps the map entry).
  void reset_handshake(sgx::EnclaveEnv& env, PeerState& st);
  /// Tears down and re-attests `peer` (peer restart / rekey path).
  void rehandshake_peer(sgx::EnclaveEnv& env, netsim::NodeId peer);
  /// kFnTimer entry: a host timer fired with `token`.
  void on_timer(sgx::EnclaveEnv& env, uint64_t token);

  const sgx::Authority& authority_;
  sgx::AttestationConfig config_;
  netsim::NodeId self_ = netsim::kInvalidNode;
  netsim::RetryPolicy recovery_;  // disabled by default
  std::unique_ptr<ShardReplica> shard_;     // null unless host-configured
  crypto::Bytes restored_shard_state_;      // vv from a pre-config restore
  std::map<netsim::NodeId, PeerState> peers_;
  // Tallies the host reads through kFnQuery (core/ports.h).
  uint64_t attestations_initiated_ = 0;
  uint64_t attestations_served_ = 0;
  uint64_t rejected_records_ = 0;
  uint64_t attest_retries_ = 0;
  uint64_t rehandshakes_ = 0;
  uint64_t peer_failures_ = 0;
};

}  // namespace tenet::core
