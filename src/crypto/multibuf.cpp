#include "crypto/multibuf.h"

#include <cstring>

namespace tenet::crypto::mb {

void ctr_xor_batch(const Aes128& key, std::span<const CtrJob> jobs) {
  for (const CtrJob& job : jobs) {
    key.ctr_xor(job.nonce, job.counter, job.data, job.len);
  }
}

void hmac_batch(const HmacKey& key, std::span<const MacJob> jobs) {
  // The batching win is the cached ipad/opad states plus whichever
  // sha256_kernel backend is active.
  for (const MacJob& job : jobs) {
    const Digest d = key.mac_parts({job.a, job.b});
    std::memcpy(job.tag_out, d.data(), job.tag_len);
  }
}

}  // namespace tenet::crypto::mb
