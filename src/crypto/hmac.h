// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// Every MAC in the system (REPORT MACs, secure-channel records, TLS
// transcript MACs) and every key derivation (EGETKEY, attestation session
// keys) goes through these two primitives.
#pragma once

#include "crypto/bytes.h"
#include "crypto/sha256.h"

namespace tenet::crypto {

/// A prepared HMAC-SHA256 key: the ipad/opad chaining states are computed
/// once at construction, so each MAC skips two compressions. To keep cost
/// traces byte-identical with the uncached path, mac_parts() still charges
/// the two canonical blocks it skipped (the precompute itself is uncharged) —
/// same canonical-cost rule as the PR1 kernel backends.
class HmacKey {
 public:
  HmacKey() = default;
  explicit HmacKey(BytesView key);

  /// HMAC over the concatenation of fragments; byte-identical to
  /// hmac_sha256_parts(key, parts) and charges the same canonical work.
  Digest mac_parts(std::initializer_list<BytesView> parts) const;
  Digest mac(BytesView data) const { return mac_parts({data}); }

 private:
  std::array<uint32_t, 8> inner_{};
  std::array<uint32_t, 8> outer_{};
};

/// HMAC-SHA256 over `data` with `key` (any key length).
Digest hmac_sha256(BytesView key, BytesView data);

/// HMAC over the concatenation of fragments (avoids copies on hot paths).
Digest hmac_sha256_parts(BytesView key, std::initializer_list<BytesView> parts);

/// Verifies an HMAC in constant time.
bool hmac_verify(BytesView key, BytesView data, BytesView mac);

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Digest hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand: derives `length` bytes from PRK with context `info`.
/// length <= 255*32.
Bytes hkdf_expand(const Digest& prk, BytesView info, size_t length);

/// Extract-then-expand convenience.
Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, size_t length);

}  // namespace tenet::crypto
