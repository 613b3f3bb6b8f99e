// Authenticated encryption: AES-128-CTR + HMAC-SHA256, encrypt-then-MAC.
//
// This is the record protection used on every secure channel the paper's
// designs bootstrap out of remote attestation (controller<->AS, Tor links,
// endpoint<->middlebox key provisioning).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "crypto/aes.h"
#include "crypto/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace tenet::crypto {

/// Sealed record layout: [8B nonce | 8B seq | ciphertext | 16B tag].
class Aead {
 public:
  static constexpr size_t kKeySize = 32;  // 16B AES key + 16B MAC key seed
  static constexpr size_t kTagSize = 16;
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kOverhead = kHeaderSize + kTagSize;

  /// `key` must be kKeySize bytes; throws std::invalid_argument otherwise.
  explicit Aead(BytesView key);

  /// Seals `plaintext` with the given nonce/sequence pair; (nonce, seq)
  /// must never repeat under one key — callers use a per-direction nonce
  /// and a monotone sequence number. `aad` is authenticated but not
  /// encrypted.
  [[nodiscard]] Bytes seal(uint64_t nonce, uint64_t seq, BytesView plaintext,
                           BytesView aad = {}) const;

  /// Opens a sealed record; returns nullopt on any authentication failure.
  [[nodiscard]] std::optional<Bytes> open(BytesView record,
                                          BytesView aad = {}) const;

  /// Exact sealed length for a plaintext of `plaintext_len` bytes.
  static constexpr size_t sealed_size(size_t plaintext_len) {
    return kOverhead + plaintext_len;
  }

  /// Seals into caller-provided storage — `out` must be exactly
  /// sealed_size(plaintext.size()) bytes. Byte-identical to seal(); this is
  /// the zero-copy hook: callers point `out` at a ring-slot or pooled
  /// payload tail instead of allocating an intermediate record.
  void seal_into(uint64_t nonce, uint64_t seq, BytesView plaintext,
                 BytesView aad, std::span<uint8_t> out) const;

  /// In-place open: on success returns the plaintext length and leaves the
  /// plaintext at record[kHeaderSize .. kHeaderSize+len). The buffer is only
  /// modified after the MAC verifies (encrypt-then-MAC order).
  [[nodiscard]] std::optional<size_t> open_in_place(std::span<uint8_t> record,
                                                    BytesView aad = {}) const;

  /// Sequence number carried by a sealed record (for replay windows).
  static uint64_t record_seq(BytesView record);

 private:
  /// True iff `record` is long enough to parse and its tag verifies over
  /// aad ‖ header ‖ ciphertext. The one MAC check behind open() and
  /// open_in_place().
  [[nodiscard]] bool authentic(BytesView record, BytesView aad) const;

  Aes128 cipher_;
  HmacKey mac_key_;
};

}  // namespace tenet::crypto
