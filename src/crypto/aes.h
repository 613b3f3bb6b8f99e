// AES-128 (FIPS 197), from scratch: ECB block operations and CTR mode.
//
// The paper's prototype uses "AES-ECB mode as a symmetric key operation
// with 128-bit key using polarssl" (§5). We provide the same ECB primitive
// for the Table 1/2 reproductions and CTR for the secure channel (ECB is
// not semantically secure; the paper used it only as a cost proxy — see
// DESIGN.md).
//
// This is the one place AES runs. Key expansion, block encryption and CTR
// dispatch at runtime to AES-NI where the CPU has it, and otherwise to a
// byte-wise FIPS-197 reference; both write identical bytes and charge the
// work meter identically.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"

namespace tenet::crypto {

using AesKey128 = std::array<uint8_t, 16>;
using AesBlock = std::array<uint8_t, 16>;

/// AES-128 with an expanded key schedule. Construction performs the key
/// expansion (charged to the work meter as one key schedule).
class Aes128 {
 public:
  explicit Aes128(const AesKey128& key);

  /// Encrypts/decrypts a single 16-byte block in place.
  void encrypt_block(AesBlock& block) const;
  void decrypt_block(AesBlock& block) const;

  /// ECB over a whole buffer; size must be a multiple of 16.
  /// Throws std::invalid_argument otherwise.
  Bytes ecb_encrypt(BytesView plaintext) const;
  Bytes ecb_decrypt(BytesView ciphertext) const;

  /// PKCS#7-padded ECB (so arbitrary-length app payloads round-trip).
  Bytes ecb_encrypt_padded(BytesView plaintext) const;
  /// Throws std::invalid_argument on bad padding.
  Bytes ecb_decrypt_padded(BytesView ciphertext) const;

  /// CTR keystream XOR; encryption and decryption are the same operation.
  /// `nonce` occupies the first 8 bytes of the counter block; the counter
  /// is a 64-bit big-endian value in the last 8 bytes starting at
  /// `initial_counter` (it wraps mod 2^64 without carrying into the nonce).
  Bytes ctr_crypt(uint64_t nonce, uint64_t initial_counter,
                  BytesView data) const;

  /// In-place CTR keystream XOR over `data` (same counter-block layout as
  /// ctr_crypt). The work meter is charged once for the whole buffer —
  /// ⌈len/16⌉ blocks, the same total as per-block charging.
  void ctr_xor(uint64_t nonce, uint64_t initial_counter, uint8_t* data,
               size_t len) const;

  /// The expanded schedule (11 round keys x 16 bytes), so tests can compare
  /// the AES-NI and the portable key expansion.
  const std::array<std::array<uint8_t, 16>, 11>& round_key_bytes() const {
    return round_keys_;
  }

 private:
  std::array<std::array<uint8_t, 16>, 11> round_keys_{};
};

namespace mb {

enum class Backend : uint8_t {
  kScalar,   ///< the portable byte-wise reference AES
  kBatched,  ///< AES-NI when the CPU has it (the default)
};

/// Currently selected AES backend (default kBatched).
Backend backend();
/// Sets the backend (test hook: kScalar forces the portable AES everywhere,
/// key expansion included); returns the previous one.
Backend set_backend(Backend b);
/// True when the AES-NI kernel is compiled in and the CPU supports it.
bool aesni_available();

}  // namespace mb

}  // namespace tenet::crypto
