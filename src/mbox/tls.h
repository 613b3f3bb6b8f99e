// Mini-TLS: an ephemeral-DH handshake with transcript authentication and
// an AEAD record layer.
//
// §3.3's problem statement: "widespread use of TLS disrupts in-network
// processing since only endpoints of communication can access the
// plain-text." This module provides those TLS sessions; the middlebox
// module then adds the paper's key idea — endpoints remote-attest in-path
// middleboxes and hand them the session key over the attestation-derived
// secure channel.
//
// Transport-agnostic state machines (the endpoint apps shuttle the
// handshake messages through the middlebox path):
//   client                          server
//     | -- ClientHello {pub_c, n_c} -> |
//     | <- ServerHello {pub_s, n_s,    |
//     |       MAC_s(transcript)}    -- |
//     | -- Finished {MAC_c(transcript)} -> |
#pragma once

#include <optional>
#include <stdexcept>

#include "crypto/dh.h"
#include "crypto/rng.h"
#include "netsim/secure_channel.h"

namespace tenet::mbox {

/// Exportable session secret: exactly what an endpoint provisions to an
/// attested middlebox (§3.3 "give their session keys through the secure
/// channel to in-path middleboxes").
struct TlsKeyMaterial {
  crypto::Bytes channel_key;  // 32B AEAD key for the record layer

  [[nodiscard]] crypto::Bytes serialize() const { return channel_key; }
  /// Throws std::invalid_argument unless `wire` is one AEAD key.
  static TlsKeyMaterial deserialize(crypto::BytesView wire) {
    if (wire.size() != crypto::Aead::kKeySize) {
      throw std::invalid_argument("TlsKeyMaterial: key is not 32 bytes");
    }
    return TlsKeyMaterial{crypto::Bytes(wire.begin(), wire.end())};
  }
};

/// The state a finished handshake leaves: the exportable key and the
/// record channel keyed with it. Each handshake class below sets it.
class TlsSessionState {
 public:
  [[nodiscard]] bool established() const { return established_; }
  /// Both throw std::logic_error until the session is established.
  [[nodiscard]] const TlsKeyMaterial& keys() const;
  [[nodiscard]] netsim::SecureChannel& channel();

 protected:
  /// Keys the record layer; `initiator` picks this side's nonce direction.
  void key_channel(crypto::Bytes channel_key, bool initiator) {
    keys_.channel_key = std::move(channel_key);
    channel_.emplace(keys_.channel_key, initiator);
  }
  [[nodiscard]] bool keyed() const { return channel_.has_value(); }

  bool established_ = false;

 private:
  TlsKeyMaterial keys_;
  std::optional<netsim::SecureChannel> channel_;
};

class TlsClientSession : public TlsSessionState {
 public:
  explicit TlsClientSession(crypto::Drbg& rng);

  /// Produces the ClientHello. Call once.
  crypto::Bytes hello();
  /// Consumes the ServerHello; returns the Finished message, or nullopt on
  /// verification failure. Establishes the session on success.
  std::optional<crypto::Bytes> handle_server_hello(crypto::BytesView msg);

 private:
  crypto::Drbg& rng_;
  std::optional<crypto::DhKeyPair> dh_;
  crypto::Bytes nonce_;
  bool hello_sent_ = false;
};

class TlsServerSession : public TlsSessionState {
 public:
  explicit TlsServerSession(crypto::Drbg& rng);

  /// Consumes the ClientHello and produces the ServerHello; nullopt on a
  /// malformed hello. Keys the channel; the session is not established
  /// until the client's Finished verifies.
  std::optional<crypto::Bytes> handle_hello(crypto::BytesView msg);
  /// Verifies the client Finished; the session is established iff it does.
  bool handle_finished(crypto::BytesView msg);

 private:
  crypto::Drbg& rng_;
  crypto::Bytes client_mac_key_;
  crypto::Bytes transcript_;
};

/// Key schedule shared by both sides (and by tests).
struct TlsSecrets {
  crypto::Bytes channel_key;     // 32B
  crypto::Bytes server_mac_key;  // 32B
  crypto::Bytes client_mac_key;  // 32B

  static TlsSecrets derive(crypto::BytesView shared, crypto::BytesView nonce_c,
                           crypto::BytesView nonce_s);
};

}  // namespace tenet::mbox
