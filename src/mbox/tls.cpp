#include "mbox/tls.h"

#include <stdexcept>

#include "crypto/hmac.h"

namespace tenet::mbox {

namespace {
constexpr std::string_view kHelloTag = "TLSC";
constexpr std::string_view kServerTag = "TLSS";
constexpr std::string_view kFinTag = "TLSF";

const crypto::DhGroup& group() { return crypto::DhGroup::oakley_group2(); }

crypto::Bytes transcript_of(crypto::BytesView pub_c, crypto::BytesView n_c,
                            crypto::BytesView pub_s, crypto::BytesView n_s) {
  crypto::Bytes t;
  crypto::append_lv(t, pub_c);
  crypto::append_lv(t, n_c);
  crypto::append_lv(t, pub_s);
  crypto::append_lv(t, n_s);
  return crypto::digest_bytes(crypto::Sha256::hash(t));
}

bool check_tag(crypto::Reader& r, std::string_view tag) {
  try {
    return crypto::to_string(r.take(tag.size())) == tag;
  } catch (const std::out_of_range&) {
    return false;
  }
}
}  // namespace

TlsSecrets TlsSecrets::derive(crypto::BytesView shared,
                              crypto::BytesView nonce_c,
                              crypto::BytesView nonce_s) {
  crypto::Bytes salt;
  crypto::append_lv(salt, nonce_c);
  crypto::append_lv(salt, nonce_s);
  const crypto::Bytes okm =
      crypto::hkdf(salt, shared, crypto::to_bytes("tenet.tls.master"), 96);
  TlsSecrets s;
  s.channel_key.assign(okm.begin(), okm.begin() + 32);
  s.server_mac_key.assign(okm.begin() + 32, okm.begin() + 64);
  s.client_mac_key.assign(okm.begin() + 64, okm.end());
  return s;
}

const TlsKeyMaterial& TlsSessionState::keys() const {
  if (!established_) throw std::logic_error("TlsSession: not established");
  return keys_;
}

netsim::SecureChannel& TlsSessionState::channel() {
  if (!established_) throw std::logic_error("TlsSession: not established");
  return *channel_;
}

TlsClientSession::TlsClientSession(crypto::Drbg& rng) : rng_(rng) {}

crypto::Bytes TlsClientSession::hello() {
  if (hello_sent_) throw std::logic_error("TlsClientSession: hello twice");
  hello_sent_ = true;
  dh_.emplace(group(), rng_);
  nonce_ = rng_.bytes(32);
  crypto::Bytes msg;
  crypto::append(msg, crypto::to_bytes(kHelloTag));
  crypto::append_lv(msg, dh_->public_bytes());
  crypto::append_lv(msg, nonce_);
  return msg;
}

std::optional<crypto::Bytes> TlsClientSession::handle_server_hello(
    crypto::BytesView msg) {
  if (!hello_sent_ || established_) return std::nullopt;
  crypto::Reader r(msg);
  if (!check_tag(r, kServerTag)) return std::nullopt;
  crypto::Bytes pub_s, nonce_s, mac;
  try {
    pub_s = r.lv();
    nonce_s = r.lv();
    mac = r.lv();
  } catch (const std::exception&) {
    return std::nullopt;
  }
  crypto::Bytes shared;
  try {
    shared = dh_->shared_secret(crypto::BytesView(pub_s));
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  const TlsSecrets secrets = TlsSecrets::derive(shared, nonce_, nonce_s);
  const crypto::Bytes transcript =
      transcript_of(dh_->public_bytes(), nonce_, pub_s, nonce_s);
  if (!crypto::hmac_verify(secrets.server_mac_key, transcript, mac)) {
    return std::nullopt;
  }

  key_channel(secrets.channel_key, /*initiator=*/true);
  established_ = true;

  crypto::Bytes fin;
  crypto::append(fin, crypto::to_bytes(kFinTag));
  const crypto::Digest fmac =
      crypto::hmac_sha256(secrets.client_mac_key, transcript);
  crypto::append_lv(fin, crypto::digest_bytes(fmac));
  return fin;
}

TlsServerSession::TlsServerSession(crypto::Drbg& rng) : rng_(rng) {}

std::optional<crypto::Bytes> TlsServerSession::handle_hello(
    crypto::BytesView msg) {
  crypto::Reader r(msg);
  if (!check_tag(r, kHelloTag)) return std::nullopt;
  crypto::Bytes pub_c, nonce_c;
  try {
    pub_c = r.lv();
    nonce_c = r.lv();
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const crypto::DhKeyPair dh(group(), rng_);
  crypto::Bytes shared;
  try {
    shared = dh.shared_secret(crypto::BytesView(pub_c));
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  const crypto::Bytes nonce_s = rng_.bytes(32);
  const TlsSecrets secrets = TlsSecrets::derive(shared, nonce_c, nonce_s);
  transcript_ = transcript_of(pub_c, nonce_c, dh.public_bytes(), nonce_s);
  client_mac_key_ = secrets.client_mac_key;
  key_channel(secrets.channel_key, /*initiator=*/false);

  crypto::Bytes reply;
  crypto::append(reply, crypto::to_bytes(kServerTag));
  crypto::append_lv(reply, dh.public_bytes());
  crypto::append_lv(reply, nonce_s);
  const crypto::Digest mac =
      crypto::hmac_sha256(secrets.server_mac_key, transcript_);
  crypto::append_lv(reply, crypto::digest_bytes(mac));
  return reply;
}

bool TlsServerSession::handle_finished(crypto::BytesView msg) {
  if (!keyed()) return false;
  crypto::Reader r(msg);
  if (!check_tag(r, kFinTag)) return false;
  crypto::Bytes mac;
  try {
    mac = r.lv();
  } catch (const std::exception&) {
    return false;
  }
  established_ = crypto::hmac_verify(client_mac_key_, transcript_, mac);
  return established_;
}

}  // namespace tenet::mbox
