#include "netsim/secure_channel.h"

#include "telemetry/telemetry.h"

namespace tenet::netsim {

namespace {
constexpr uint64_t kInitiatorNonce = 0x494e4954;  // "INIT"
constexpr uint64_t kResponderNonce = 0x52455350;  // "RESP"
}  // namespace

SecureChannel::SecureChannel(crypto::BytesView key, bool initiator)
    : aead_(key),
      send_nonce_(initiator ? kInitiatorNonce : kResponderNonce),
      recv_nonce_(initiator ? kResponderNonce : kInitiatorNonce) {
  TENET_COUNT("chan.channels");
}

SecureChannel::SecureChannel(crypto::BytesView key, bool initiator,
                             const Resume& resume)
    : aead_(key),
      send_nonce_(initiator ? kInitiatorNonce : kResponderNonce),
      recv_nonce_(initiator ? kResponderNonce : kInitiatorNonce),
      send_seq_(resume.send_seq),
      next_recv_seq_(resume.next_recv_seq),
      received_(resume.received) {
  TENET_COUNT("chan.resumes");
}

void SecureChannel::set_seq_limit(uint64_t hard_limit, uint64_t rekey_margin) {
  if (hard_limit == 0 || rekey_margin >= hard_limit) {
    throw std::invalid_argument("SecureChannel::set_seq_limit: bad limits");
  }
  seq_limit_ = hard_limit;
  rekey_margin_ = rekey_margin;
}

void SecureChannel::advance_send_seq(uint64_t seq) {
  if (seq < send_seq_) {
    throw std::invalid_argument(
        "SecureChannel::advance_send_seq: cannot rewind");
  }
  send_seq_ = seq;
}

// plaintext_len is read only by the telemetry macros.
uint64_t SecureChannel::claim_send_seq([[maybe_unused]] size_t plaintext_len) {
  if (send_seq_ >= seq_limit_) {
    TENET_COUNT("chan.nonce_exhausted");
    throw NonceExhaustedError(
        "SecureChannel::seal: send sequence exhausted; rekey required");
  }
  TENET_COUNT("chan.records_sealed");
  TENET_COUNT("chan.bytes_sealed", plaintext_len);
  TENET_HISTOGRAM("chan.record_bytes", plaintext_len);
  return send_seq_++;
}

crypto::Bytes SecureChannel::seal(crypto::BytesView plaintext) {
  return aead_.seal(send_nonce_, claim_send_seq(plaintext.size()), plaintext);
}

void SecureChannel::seal_into(crypto::BytesView plaintext,
                              std::span<uint8_t> out) {
  // Checked before the claim, so a bad `out` spends no sequence number.
  if (out.size() != sealed_size(plaintext.size())) {
    throw std::invalid_argument("SecureChannel::seal_into: bad output size");
  }
  aead_.seal_into(send_nonce_, claim_send_seq(plaintext.size()), plaintext, {},
                  out);
}

template <typename Open>
auto SecureChannel::admit_and_open(crypto::BytesView record, Open open)
    -> decltype(open()) {
  if (record.size() < crypto::Aead::kOverhead) return std::nullopt;
  // Direction check: the nonce in the header must be the peer's.
  if (crypto::read_u64(record, 0) != recv_nonce_) return std::nullopt;
  const uint64_t seq = crypto::Aead::record_seq(record);
  if (seq < next_recv_seq_) {
    TENET_COUNT("chan.replays_rejected");
    return std::nullopt;  // replay / reorder below window
  }
  auto opened = open();
  if (!opened.has_value()) {
    TENET_COUNT("chan.open_failures");
    return std::nullopt;
  }
  next_recv_seq_ = seq + 1;
  ++received_;
  TENET_COUNT("chan.records_opened");
  return opened;
}

std::optional<crypto::Bytes> SecureChannel::open(crypto::BytesView record) {
  return admit_and_open(record, [&] { return aead_.open(record); });
}

std::optional<size_t> SecureChannel::open_in_place(
    std::span<uint8_t> record) {
  return admit_and_open(record, [&] { return aead_.open_in_place(record); });
}

}  // namespace tenet::netsim
