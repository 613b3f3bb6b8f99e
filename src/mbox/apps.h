// Endpoint and middlebox applications for §3.3 "Secure In-network
// Functions".
//
// The key idea, verbatim from the paper: "endpoints use a remote
// attestation to authenticate middleboxes and give their session keys
// through the secure channel to in-path middleboxes." Both agreement
// modes are implemented:
//   * bilateral — both endpoints attest the middlebox and provision keys;
//     the middlebox activates DPI only once both agree;
//   * unilateral — one endpoint (e.g. enterprise egress) ships the keys,
//     enabling the outsourced-DPI use case.
// A middlebox that is NOT attested and provisioned forwards opaque
// ciphertext and learns nothing.
#pragma once

#include <set>

#include "core/secure_app.h"
#include "mbox/dpi.h"
#include "mbox/tls.h"

namespace tenet::mbox {

/// Wire tags on the plain (in-path) ports.
enum class MboxMsg : uint8_t {
  kOpen = 1,       // u32 sid | u32 n | u32 hop... (remaining path, server last)
  kHandshake = 2,  // u32 sid | u8 dir | LV tls handshake message
  kRecord = 3,     // u32 sid | u8 dir | LV tls record
};
enum class Direction : uint8_t { kClientToServer = 0, kServerToClient = 1 };

/// Secure-channel (post-attestation) message.
enum class MboxSecureMsg : uint8_t {
  kProvision = 1,  // u32 sid | u8 endpoint role | LV TlsKeyMaterial
};
enum class EndpointRole : uint8_t { kClient = 1, kServer = 2 };

crypto::Bytes encode_open(uint32_t sid, const std::vector<netsim::NodeId>& rest);
crypto::Bytes encode_handshake(uint32_t sid, Direction dir,
                               crypto::BytesView payload);
crypto::Bytes encode_record(uint32_t sid, Direction dir,
                            crypto::BytesView record);
crypto::Bytes encode_provision(uint32_t sid, EndpointRole role,
                               const TlsKeyMaterial& keys);

// --- Endpoint controls ---
enum EndpointControl : uint32_t {
  kCtlOpenSession = 1,    // u32 server | u32 n_mbox | u32 mbox... -> u32 sid
  kCtlIsEstablished = 2,  // u32 sid -> u8
  kCtlSendData = 3,       // u32 sid | LV data
  kCtlReceived = 4,       // u32 sid -> LV... (all received, concatenated LVs)
  kCtlProvisionMbox = 5,  // u32 sid | u32 mbox node
};

// --- Middlebox controls ---
enum MboxControl : uint32_t {
  kCtlAlertCount = 1,       // -> u64
  kCtlAlerts = 2,           // -> (u32 pattern id, u64 offset)...
  kCtlSessionActive = 3,    // u32 sid -> u8 (DPI enabled?)
  kCtlOpaqueForwarded = 4,  // -> u64 records forwarded without keys
  kCtlBlockedCount = 5,     // -> u64 records dropped by policy
  kCtlInspectedCount = 6,   // -> u64 records decrypted and scanned
};

/// TLS client endpoint (runs in an enclave; attests middleboxes before
/// provisioning).
class TlsClientApp final : public core::SecureApp {
 public:
  TlsClientApp(const sgx::Authority& authority, sgx::AttestationConfig config);

  void on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                        crypto::BytesView payload) override;
  void on_secure_message(core::Ctx&, netsim::NodeId,
                         crypto::BytesView) override {}  // endpoints expect none
  void on_peer_attested(core::Ctx& ctx, netsim::NodeId peer) override;
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override;

 private:
  struct Session {
    netsim::NodeId first_hop = netsim::kInvalidNode;
    std::optional<TlsClientSession> tls;
    crypto::Bytes received;  // concatenated LV frames
  };
  std::map<uint32_t, Session> sessions_;
  std::map<netsim::NodeId, std::vector<uint32_t>> pending_provision_;
  uint32_t next_sid_ = 100;
};

/// TLS server endpoint. Answers every record with "ok:<data>".
class TlsServerApp final : public core::SecureApp {
 public:
  TlsServerApp(const sgx::Authority& authority, sgx::AttestationConfig config);

  void on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                        crypto::BytesView payload) override;
  void on_secure_message(core::Ctx&, netsim::NodeId,
                         crypto::BytesView) override {}  // endpoints expect none
  void on_peer_attested(core::Ctx& ctx, netsim::NodeId peer) override;
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override;

 private:
  struct Session {
    netsim::NodeId prev_hop = netsim::kInvalidNode;
    std::optional<TlsServerSession> tls;
    crypto::Bytes received;
  };
  std::map<uint32_t, Session> sessions_;
  std::map<netsim::NodeId, std::vector<uint32_t>> pending_provision_;
};

/// Middlebox policy knobs.
struct MboxPolicy {
  bool require_both_endpoints = true;  // bilateral agreement (§3.3)
  bool block_on_match = false;         // IPS mode: drop matching records
  /// What happens to records the middlebox cannot inspect (no keys — e.g.
  /// after an enclave restart wiped the provisioned session state):
  /// fail-open (default) forwards the opaque ciphertext, fail-closed
  /// drops it until the endpoints re-provision.
  bool fail_closed = false;
};

/// In-path DPI middlebox (enclave app). Patterns are baked into the
/// trusted image at build time (part of the audited code/data).
class DpiMiddleboxApp final : public core::SecureApp {
 public:
  DpiMiddleboxApp(const sgx::Authority& authority,
                  sgx::AttestationConfig config, MboxPolicy policy,
                  std::vector<std::string> patterns);

  void on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                        crypto::BytesView payload) override;
  void on_secure_message(core::Ctx& ctx, netsim::NodeId peer,
                         crypto::BytesView payload) override;
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override;

  /// Checkpoint = session routing only (sid -> prev/next hop). Keys and
  /// record-layer state are deliberately NOT checkpointed: a restarted
  /// middlebox resumes forwarding per fail-open/fail-closed policy and
  /// re-inspects only after the endpoints re-attest and re-provision.
  crypto::Bytes on_checkpoint(core::Ctx& ctx) override;
  void on_restore(core::Ctx& ctx, crypto::BytesView state) override;

 private:
  struct Session {
    netsim::NodeId prev = netsim::kInvalidNode;
    netsim::NodeId next = netsim::kInvalidNode;
    std::set<EndpointRole> provisioned;
    std::optional<TlsKeyMaterial> keys;
    // Passive record-layer views (one per direction) + scanners.
    std::optional<netsim::SecureChannel> c2s_view;
    std::optional<netsim::SecureChannel> s2c_view;
    std::optional<DpiScanner> c2s_scan;
    std::optional<DpiScanner> s2c_scan;
    bool active = false;
  };

  void maybe_activate(Session& s);
  void forward(core::Ctx& ctx, const Session& s, Direction dir,
               crypto::BytesView wire);

  MboxPolicy policy_;
  PatternSet patterns_;
  std::map<uint32_t, Session> sessions_;
  // Reusable staging buffer for in-place record inspection: the ciphertext
  // is copied here once and decrypted in place, so the multi-hop relay path
  // makes no per-record allocations (neither the old record copy nor the
  // plaintext buffer open() returned).
  crypto::Bytes scratch_;
  std::vector<DpiMatch> alerts_;
  uint64_t opaque_forwarded_ = 0;
  uint64_t blocked_ = 0;
  uint64_t inspected_ = 0;
};

}  // namespace tenet::mbox
