#include "crypto/aead.h"

#include <cstring>
#include <stdexcept>

namespace tenet::crypto {

namespace {

AesKey128 split_aes_key(BytesView key) {
  if (key.size() != Aead::kKeySize) {
    throw std::invalid_argument("Aead: key must be 32 bytes");
  }
  AesKey128 k{};
  std::copy(key.begin(), key.begin() + 16, k.begin());
  return k;
}

inline void store_u64_be(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
  }
}

}  // namespace

Aead::Aead(BytesView key)
    : cipher_(split_aes_key(key)), mac_key_(key.subspan(16)) {}

void Aead::seal_into(uint64_t nonce, uint64_t seq, BytesView plaintext,
                     BytesView aad, std::span<uint8_t> out) const {
  if (out.size() != sealed_size(plaintext.size())) {
    throw std::invalid_argument("Aead::seal_into: bad output size");
  }
  store_u64_be(out.data(), nonce);
  store_u64_be(out.data() + 8, seq);
  if (!plaintext.empty()) {
    std::memcpy(out.data() + kHeaderSize, plaintext.data(), plaintext.size());
  }
  // CTR counter starts at seq * 2^20 so records never overlap keystream as
  // long as each record is < 16 MiB. Encrypt in place after the header.
  cipher_.ctr_xor(nonce, seq << 20, out.data() + kHeaderSize,
                  plaintext.size());

  const Digest mac = mac_key_.mac_parts(
      {aad, BytesView(out.data(), kHeaderSize + plaintext.size())});
  std::memcpy(out.data() + kHeaderSize + plaintext.size(), mac.data(),
              kTagSize);
}

Bytes Aead::seal(uint64_t nonce, uint64_t seq, BytesView plaintext,
                 BytesView aad) const {
  Bytes record(sealed_size(plaintext.size()));
  seal_into(nonce, seq, plaintext, aad, std::span<uint8_t>(record));
  return record;
}

bool Aead::authentic(BytesView record, BytesView aad) const {
  if (record.size() < kOverhead) return false;
  const size_t body_len = record.size() - kTagSize;
  const Digest mac = mac_key_.mac_parts({aad, record.first(body_len)});
  return ct_equal(BytesView(mac.data(), kTagSize), record.subspan(body_len));
}

std::optional<Bytes> Aead::open(BytesView record, BytesView aad) const {
  if (!authentic(record, aad)) return std::nullopt;
  Bytes plain(record.begin() + kHeaderSize, record.end() - kTagSize);
  cipher_.ctr_xor(read_u64(record, 0), record_seq(record) << 20, plain.data(),
                  plain.size());
  return plain;
}

std::optional<size_t> Aead::open_in_place(std::span<uint8_t> record,
                                          BytesView aad) const {
  if (!authentic(record, aad)) return std::nullopt;
  const size_t pt_len = record.size() - kOverhead;
  cipher_.ctr_xor(read_u64(record, 0), record_seq(record) << 20,
                  record.data() + kHeaderSize, pt_len);
  return pt_len;
}

uint64_t Aead::record_seq(BytesView record) {
  return read_u64(record, 8);
}

}  // namespace tenet::crypto
