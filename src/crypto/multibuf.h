// Multi-buffer record helpers: N independent AES-CTR / HMAC-SHA256 jobs per
// call.
//
// The secure-channel record path seals one record per call today; at a
// million sessions the per-call overhead (counter-block setup, pad schedule,
// dispatch) dominates. These helpers take a whole batch of independent jobs:
// CTR runs each job through Aes128::ctr_xor (AES-NI where available, see
// aes.h), and the HMAC path resumes from per-key cached ipad/opad midstates
// (HmacKey). Each job writes the bytes and charges the canonical work-meter
// cost of the single-buffer primitive, so the PR3/PR5/PR6 replay and
// cost-attribution invariants hold whichever AES backend ran.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/aes.h"
#include "crypto/bytes.h"
#include "crypto/hmac.h"

namespace tenet::crypto::mb {

/// One CTR keystream job: XORs keystream(nonce, counter…) into
/// data[0..len). Identical semantics to Aes128::ctr_xor.
struct CtrJob {
  uint64_t nonce = 0;
  uint64_t counter = 0;
  uint8_t* data = nullptr;
  size_t len = 0;
};

/// Runs key.ctr_xor over every job, in order: ⌈len/16⌉ aes_blocks per job.
void ctr_xor_batch(const Aes128& key, std::span<const CtrJob> jobs);

/// One MAC job over the concatenation a‖b (records MAC aad ‖ header ‖
/// ciphertext with aad and record in separate buffers).
struct MacJob {
  BytesView a;
  BytesView b;
  uint8_t* tag_out = nullptr;  ///< first tag_len digest bytes written here
  size_t tag_len = 0;
};

/// MACs every job with the cached key. Byte-identical (per job) to
/// hmac_sha256_parts(key, {a, b}) truncated to tag_len; charges the same
/// canonical sha256_blocks per job.
void hmac_batch(const HmacKey& key, std::span<const MacJob> jobs);

}  // namespace tenet::crypto::mb
