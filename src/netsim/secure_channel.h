// Secure channel: the record layer the paper's designs run after remote
// attestation ("communication between the AS-local and inter-domain
// controller is done through a secure channel that is established during
// remote attestation", §3.1).
//
// Key material comes from the attestation session key; records are
// AES-128-CTR + HMAC-SHA256 with per-direction nonces and strictly
// monotone sequence numbers (replay rejection).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>

#include "crypto/aead.h"

namespace tenet::netsim {

/// Thrown by SecureChannel::seal when the send sequence reaches the
/// nonce-space limit: sealing further records would reuse a CTR nonce,
/// which is catastrophic for AES-CTR. Callers must rekey (re-attest)
/// before this point; RobustChannel does so proactively.
class NonceExhaustedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SecureChannel {
 public:
  static constexpr size_t kKeySize = crypto::Aead::kKeySize;

  /// Hard ceiling on records per key. 2^48 leaves the top 16 bits of the
  /// 64-bit record sequence as margin against (nonce, seq) collisions.
  static constexpr uint64_t kDefaultSeqLimit = uint64_t{1} << 48;

  /// Both endpoints derive the same 32-byte key (e.g. from the attestation
  /// session); `initiator` picks which direction nonce each side sends on.
  SecureChannel(crypto::BytesView key, bool initiator);

  /// Sequence-number snapshot for suspend/resume (SessionCache). A channel
  /// resumed from a snapshot seals and opens byte-identically to one that
  /// stayed live.
  struct Resume {
    uint64_t send_seq = 0;
    uint64_t next_recv_seq = 0;
    uint64_t received = 0;
  };

  /// Rebuilds a channel from the same key material plus a snapshot; this
  /// re-expands the AES key schedule and HMAC midstates, which is what the
  /// SessionCache hot tier amortizes.
  SecureChannel(crypto::BytesView key, bool initiator, const Resume& resume);

  /// Snapshot of the live sequence state (see Resume).
  [[nodiscard]] Resume resume_state() const {
    return Resume{send_seq_, next_recv_seq_, received_};
  }

  /// Seals an outgoing record (increments the send sequence).
  [[nodiscard]] crypto::Bytes seal(crypto::BytesView plaintext);

  /// Exact sealed length for `plaintext_len` payload bytes.
  static constexpr size_t sealed_size(size_t plaintext_len) {
    return crypto::Aead::sealed_size(plaintext_len);
  }

  /// Zero-copy seal: writes the record into `out` (exactly
  /// sealed_size(plaintext.size()) bytes — e.g. the tail of a framed ocall
  /// request or a pooled message payload). Byte-identical to seal().
  void seal_into(crypto::BytesView plaintext, std::span<uint8_t> out);

  /// Opens an incoming record. Returns nullopt on MAC failure, wrong
  /// direction, or replayed/reordered-below-window sequence numbers.
  [[nodiscard]] std::optional<crypto::Bytes> open(crypto::BytesView record);

  /// In-place open: decrypts inside `record`, returning the plaintext
  /// length on success (plaintext at record[Aead::kHeaderSize..]). Same
  /// acceptance rules and counters as open().
  [[nodiscard]] std::optional<size_t> open_in_place(std::span<uint8_t> record);

  [[nodiscard]] uint64_t records_sent() const { return send_seq_; }
  [[nodiscard]] uint64_t records_received() const { return received_; }
  [[nodiscard]] uint64_t next_recv_seq() const { return next_recv_seq_; }

  /// Adjusts the nonce-exhaustion guard: seal() throws NonceExhaustedError
  /// at `hard_limit` records; needs_rekey() turns true `rekey_margin`
  /// records earlier so callers can rekey before hitting the wall.
  void set_seq_limit(uint64_t hard_limit, uint64_t rekey_margin = 1024);

  /// True once the channel is close enough to the sequence limit that the
  /// owner should negotiate a fresh key.
  [[nodiscard]] bool needs_rekey() const {
    return send_seq_ + rekey_margin_ >= seq_limit_;
  }

  /// Test hook: jump the send sequence forward (never backward) to
  /// exercise the exhaustion path without sealing 2^48 records.
  void advance_send_seq(uint64_t seq);

 private:
  /// The send side of seal() and seal_into(): the nonce-exhaustion guard
  /// and the chan.* counters. Returns the sequence number to seal under.
  uint64_t claim_send_seq(size_t plaintext_len);

  /// The receive side of open() and open_in_place(): length, direction
  /// nonce and replay-window admission, then `open()` (the AEAD open),
  /// then the accept step (sequence cursor and chan.* counters). Defined
  /// in the .cpp file, the only place it is instantiated.
  template <typename Open>
  auto admit_and_open(crypto::BytesView record, Open open) -> decltype(open());

  crypto::Aead aead_;
  uint64_t send_nonce_;
  uint64_t recv_nonce_;
  uint64_t send_seq_ = 0;
  uint64_t next_recv_seq_ = 0;
  uint64_t received_ = 0;
  uint64_t seq_limit_ = kDefaultSeqLimit;
  uint64_t rekey_margin_ = 1024;
};

}  // namespace tenet::netsim
