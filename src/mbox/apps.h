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

/// One plain-port frame, decoded in place: `body` views the wire bytes.
struct Frame {
  MboxMsg tag = MboxMsg::kOpen;
  uint32_t sid = 0;
  Direction dir = Direction::kClientToServer;  // kHandshake and kRecord
  /// kHandshake/kRecord: the LV's value. kOpen: the remaining path, one
  /// u32 hop per 4 bytes.
  crypto::BytesView body;

  [[nodiscard]] size_t hop_count() const { return body.size() / 4; }
  [[nodiscard]] netsim::NodeId hop(size_t i) const {
    return crypto::read_u32(body, 4 * i);
  }
};

crypto::Bytes encode_open(uint32_t sid, const std::vector<netsim::NodeId>& rest);
/// A kHandshake or kRecord frame.
crypto::Bytes encode_frame(MboxMsg tag, uint32_t sid, Direction dir,
                           crypto::BytesView body);
/// Decodes any plain-port frame. Throws std::out_of_range on a short frame
/// and std::invalid_argument on an unknown tag, a direction other than
/// 0/1, a kOpen hop count the frame does not hold, or trailing bytes.
Frame decode_frame(crypto::BytesView wire);

struct Provision {
  uint32_t sid = 0;
  EndpointRole role = EndpointRole::kClient;
  TlsKeyMaterial keys;
};
crypto::Bytes encode_provision(uint32_t sid, EndpointRole role,
                               const TlsKeyMaterial& keys);
/// Throws std::out_of_range on a short message and std::invalid_argument
/// on an unknown tag, a role other than 1/2, a key that is not one AEAD
/// key, or trailing bytes.
Provision decode_provision(crypto::BytesView wire);

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

/// The half of a TLS endpoint (enclave app) both ends share: the session
/// table, the log of received records, and provisioning the session key
/// to middleboxes once they attest. `Tls` is the end's handshake class;
/// the subclass adds its handshake steps.
template <typename Tls>
class TlsEndpointApp : public core::SecureApp {
 public:
  void on_plain_message(core::Ctx& ctx, netsim::NodeId peer,
                        crypto::BytesView payload) override;
  void on_secure_message(core::Ctx&, netsim::NodeId,
                         crypto::BytesView) override {}  // endpoints expect none
  void on_peer_attested(core::Ctx& ctx, netsim::NodeId peer) override;
  /// kCtlIsEstablished, kCtlReceived and kCtlProvisionMbox.
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override;

 protected:
  /// `role` is what this end provisions as; it accepts frames travelling
  /// in direction `inbound` only.
  TlsEndpointApp(const sgx::Authority& authority, sgx::AttestationConfig config,
                 EndpointRole role, Direction inbound);

  struct Session {
    netsim::NodeId hop = netsim::kInvalidNode;  // adjacent hop on the path
    std::optional<Tls> tls;                     // set by start_session
    crypto::Bytes received;                     // concatenated LV frames
  };

  /// (Re)starts session `sid` toward `hop` with a fresh handshake.
  Session& start_session(core::Ctx& ctx, uint32_t sid, netsim::NodeId hop);
  /// Session `sid` if its handshake finished, else null.
  Session* established_session(uint32_t sid);

  /// A kOpen frame arrived (only the server end of the path takes one).
  virtual void on_open(core::Ctx&, netsim::NodeId, const Frame&) {}
  /// An inbound handshake message on session `sid`.
  virtual void on_handshake(core::Ctx& ctx, uint32_t sid, Session& s,
                            crypto::BytesView msg) = 0;
  /// An inbound record opened to `plain`, already kept in `s.received`.
  virtual void on_record(core::Ctx&, uint32_t, Session&, crypto::BytesView) {}

 private:
  EndpointRole role_;
  Direction inbound_;
  std::map<uint32_t, Session> sessions_;
  std::map<netsim::NodeId, std::vector<uint32_t>> pending_provision_;
};

extern template class TlsEndpointApp<TlsClientSession>;
extern template class TlsEndpointApp<TlsServerSession>;

/// TLS client endpoint: opens sessions, sends data, provisions as kClient.
class TlsClientApp final : public TlsEndpointApp<TlsClientSession> {
 public:
  TlsClientApp(const sgx::Authority& authority, sgx::AttestationConfig config);

  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override;

 private:
  void on_handshake(core::Ctx& ctx, uint32_t sid, Session& s,
                    crypto::BytesView msg) override;

  uint32_t next_sid_ = 100;
};

/// TLS server endpoint: provisions as kServer and answers every record
/// with "ok:<data>".
class TlsServerApp final : public TlsEndpointApp<TlsServerSession> {
 public:
  TlsServerApp(const sgx::Authority& authority, sgx::AttestationConfig config);

 private:
  void on_open(core::Ctx& ctx, netsim::NodeId peer, const Frame& f) override;
  void on_handshake(core::Ctx& ctx, uint32_t sid, Session& s,
                    crypto::BytesView msg) override;
  void on_record(core::Ctx& ctx, uint32_t sid, Session& s,
                 crypto::BytesView plain) override;
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
    /// The attested peer each role is bound to: the first to provision
    /// it. One peer never holds both roles.
    netsim::NodeId client_peer = netsim::kInvalidNode;
    netsim::NodeId server_peer = netsim::kInvalidNode;
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
