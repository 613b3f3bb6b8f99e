// SHA-256 (FIPS 180-4), from scratch.
//
// Used for enclave measurements (the SGX "identity" of §2.1 is a SHA-256
// digest of enclave contents), HMAC, HKDF and Schnorr challenges.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"

namespace tenet::crypto {

using Digest = std::array<uint8_t, 32>;

/// The raw compression kernel behind Sha256. Split out so HmacKey can
/// precompute its ipad/opad midstates with it directly. The kernel never
/// touches the work meter — callers charge the canonical one-block cost
/// themselves, so the portable and SHA-NI backends stay cost-identical
/// (same rule as the PR1 bignum backends).
namespace sha256_kernel {

/// FIPS 180-4 §5.3.3 initial chaining value.
extern const std::array<uint32_t, 8> kInitState;

/// True when the SHA-NI backend is compiled in and the CPU supports it.
bool accelerated();

/// Test hook: force the portable kernel even when SHA-NI is available.
/// Returns the previous setting.
bool force_portable(bool on);

/// Compresses `n` consecutive 64-byte blocks into `state`. Uncharged.
void compress(std::array<uint32_t, 8>& state, const uint8_t* blocks, size_t n);

}  // namespace sha256_kernel

/// Incremental SHA-256. Streaming interface so large enclave images are
/// measured page-by-page without concatenation.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalizes and returns the digest; the object must be reset() before
  /// further use.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(BytesView data);
  /// One-shot over the concatenation of several fragments.
  static Digest hash_parts(std::initializer_list<BytesView> parts);

  /// Resumes hashing from a saved chaining state with `bytes_done` bytes
  /// already absorbed (must be a multiple of 64). This is the midstate hook
  /// behind HmacKey: the ipad/opad compressions are precomputed once per key
  /// and every MAC resumes from them.
  static Sha256 resume(const std::array<uint32_t, 8>& state, uint64_t bytes_done);

 private:
  void compress(const uint8_t block[64]);

  std::array<uint32_t, 8> state_{};
  uint64_t total_len_ = 0;
  std::array<uint8_t, 64> buf_{};
  size_t buf_len_ = 0;
};

/// Digest as a Bytes (wire format helper).
inline Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

/// Digest as hex (log/debug helper).
inline std::string digest_hex(const Digest& d) {
  return hex_encode(BytesView(d.data(), d.size()));
}

}  // namespace tenet::crypto
