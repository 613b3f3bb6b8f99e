#include "crypto/aes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/work.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define TENET_AESNI_KERNEL 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace tenet::crypto {

namespace {

using RoundKeys = std::array<std::array<uint8_t, 16>, 11>;

// The S-box is used by the portable path only (key expansion and
// encryption); on the AES-NI path no lookup is indexed by key or state.

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

uint8_t inv_sbox_at(uint8_t v) {
  // Inverse S-box computed once at startup from kSbox.
  static const auto inv = [] {
    std::array<uint8_t, 256> t{};
    for (int i = 0; i < 256; ++i) t[kSbox[i]] = static_cast<uint8_t>(i);
    return t;
  }();
  return inv[v];
}

constexpr uint8_t xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

inline uint8_t gmul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Portable FIPS-197 reference (byte-wise; the fallback without AES-NI)
// ---------------------------------------------------------------------------

void expand_key_portable(const AesKey128& key, RoundKeys& rks) {
  std::memcpy(rks[0].data(), key.data(), 16);
  for (size_t r = 1; r <= 10; ++r) {
    const auto& prev = rks[r - 1];
    auto& rk = rks[r];
    // First word: RotWord + SubWord + Rcon.
    rk[0] = static_cast<uint8_t>(prev[0] ^ kSbox[prev[13]] ^ kRcon[r]);
    rk[1] = static_cast<uint8_t>(prev[1] ^ kSbox[prev[14]]);
    rk[2] = static_cast<uint8_t>(prev[2] ^ kSbox[prev[15]]);
    rk[3] = static_cast<uint8_t>(prev[3] ^ kSbox[prev[12]]);
    for (size_t i = 4; i < 16; ++i) {
      rk[i] = static_cast<uint8_t>(prev[i] ^ rk[i - 4]);
    }
  }
}

// One encryption of the block at `b` (byte r + 4c is row r, column c); no
// work-meter charge (callers charge).
void encrypt_portable(const RoundKeys& rks, uint8_t* b) {
  auto add_round_key = [&](int r) {
    for (int i = 0; i < 16; ++i) b[i] ^= rks[static_cast<size_t>(r)][static_cast<size_t>(i)];
  };
  auto sub_bytes_shift_rows = [&] {
    uint8_t t[16];
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) t[r + 4 * c] = kSbox[b[r + 4 * ((c + r) % 4)]];
    }
    std::memcpy(b, t, 16);
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = &b[4 * c];
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const uint8_t all = static_cast<uint8_t>(a0 ^ a1 ^ a2 ^ a3);
      col[0] = static_cast<uint8_t>(a0 ^ all ^ xtime(static_cast<uint8_t>(a0 ^ a1)));
      col[1] = static_cast<uint8_t>(a1 ^ all ^ xtime(static_cast<uint8_t>(a1 ^ a2)));
      col[2] = static_cast<uint8_t>(a2 ^ all ^ xtime(static_cast<uint8_t>(a2 ^ a3)));
      col[3] = static_cast<uint8_t>(a3 ^ all ^ xtime(static_cast<uint8_t>(a3 ^ a0)));
    }
  };

  add_round_key(0);
  for (int round = 1; round <= 9; ++round) {
    sub_bytes_shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes_shift_rows();
  add_round_key(10);
}

void ctr_xor_portable(const RoundKeys& rks, uint64_t nonce, uint64_t counter,
                      uint8_t* data, size_t len) {
  for (size_t off = 0; off < len; off += 16, ++counter) {
    uint8_t ks[16];
    for (int i = 0; i < 8; ++i) {
      ks[i] = static_cast<uint8_t>(nonce >> (56 - 8 * i));
      ks[8 + i] = static_cast<uint8_t>(counter >> (56 - 8 * i));
    }
    encrypt_portable(rks, ks);
    const size_t n = std::min<size_t>(16, len - off);
    for (size_t i = 0; i < n; ++i) data[off + i] ^= ks[i];
  }
}

mb::Backend g_backend = mb::Backend::kBatched;

// ---------------------------------------------------------------------------
// AES-NI kernel
// ---------------------------------------------------------------------------

#if defined(TENET_AESNI_KERNEL)

bool cpu_has_aesni() {
  static const bool ok = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
    return (c & bit_AES) != 0;
  }();
  return ok;
}

// One key-expansion step: `assist` is AESKEYGENASSIST of the previous round
// key, whose top word is SubWord(RotWord(w3)) ^ Rcon.
__attribute__((target("aes,sse2"))) inline __m128i expand_step(
    __m128i key, __m128i assist) {
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, _mm_shuffle_epi32(assist, 0xff));
}

__attribute__((target("aes,sse2"))) void expand_key_aesni(
    const AesKey128& key, RoundKeys& rks) {
  __m128i rk[11];
  rk[0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key.data()));
  // The round constant is an instruction immediate, hence no loop.
  rk[1] = expand_step(rk[0], _mm_aeskeygenassist_si128(rk[0], 0x01));
  rk[2] = expand_step(rk[1], _mm_aeskeygenassist_si128(rk[1], 0x02));
  rk[3] = expand_step(rk[2], _mm_aeskeygenassist_si128(rk[2], 0x04));
  rk[4] = expand_step(rk[3], _mm_aeskeygenassist_si128(rk[3], 0x08));
  rk[5] = expand_step(rk[4], _mm_aeskeygenassist_si128(rk[4], 0x10));
  rk[6] = expand_step(rk[5], _mm_aeskeygenassist_si128(rk[5], 0x20));
  rk[7] = expand_step(rk[6], _mm_aeskeygenassist_si128(rk[6], 0x40));
  rk[8] = expand_step(rk[7], _mm_aeskeygenassist_si128(rk[7], 0x80));
  rk[9] = expand_step(rk[8], _mm_aeskeygenassist_si128(rk[8], 0x1b));
  rk[10] = expand_step(rk[9], _mm_aeskeygenassist_si128(rk[9], 0x36));
  for (size_t i = 0; i < 11; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rks[i].data()), rk[i]);
  }
}

__attribute__((target("aes,sse2"))) inline void load_schedule(
    const RoundKeys& rks, __m128i rk[11]) {
  for (size_t i = 0; i < 11; ++i) {
    rk[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rks[i].data()));
  }
}

__attribute__((target("aes,sse2"))) inline __m128i encrypt1(
    __m128i b, const __m128i rk[11]) {
  b = _mm_xor_si128(b, rk[0]);
  for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, rk[r]);
  return _mm_aesenclast_si128(b, rk[10]);
}

__attribute__((target("aes,sse2"))) void encrypt_block_aesni(
    const RoundKeys& rks, uint8_t* b) {
  __m128i rk[11];
  load_schedule(rks, rk);
  __m128i* p = reinterpret_cast<__m128i*>(b);
  _mm_storeu_si128(p, encrypt1(_mm_loadu_si128(p), rk));
}

// Counter block bytes are [nonce BE64 | counter BE64]; as two little-endian
// u64 lanes that is (bswap(nonce), bswap(counter)).
__attribute__((target("aes,sse2"))) inline __m128i ctr_block(
    uint64_t nonce_sw, uint64_t counter) {
  return _mm_set_epi64x(
      static_cast<long long>(__builtin_bswap64(counter)),
      static_cast<long long>(nonce_sw));
}

__attribute__((target("aes,sse2"))) inline void xor_into(uint8_t* p,
                                                         __m128i ks) {
  __m128i* q = reinterpret_cast<__m128i*>(p);
  _mm_storeu_si128(q, _mm_xor_si128(_mm_loadu_si128(q), ks));
}

__attribute__((target("aes,sse2"))) void ctr_xor_aesni(
    const RoundKeys& rks, uint64_t nonce, uint64_t ctr, uint8_t* p,
    size_t len) {
  __m128i rk[11];
  load_schedule(rks, rk);
  const uint64_t nonce_sw = __builtin_bswap64(nonce);
  size_t blocks = len / 16;
  const size_t tail = len % 16;

  // Four counter blocks in flight per iteration: enough to cover the
  // aesenc latency on every core that has the instruction.
  while (blocks >= 4) {
    __m128i b0 = _mm_xor_si128(ctr_block(nonce_sw, ctr + 0), rk[0]);
    __m128i b1 = _mm_xor_si128(ctr_block(nonce_sw, ctr + 1), rk[0]);
    __m128i b2 = _mm_xor_si128(ctr_block(nonce_sw, ctr + 2), rk[0]);
    __m128i b3 = _mm_xor_si128(ctr_block(nonce_sw, ctr + 3), rk[0]);
    for (int r = 1; r < 10; ++r) {
      b0 = _mm_aesenc_si128(b0, rk[r]);
      b1 = _mm_aesenc_si128(b1, rk[r]);
      b2 = _mm_aesenc_si128(b2, rk[r]);
      b3 = _mm_aesenc_si128(b3, rk[r]);
    }
    xor_into(p + 0, _mm_aesenclast_si128(b0, rk[10]));
    xor_into(p + 16, _mm_aesenclast_si128(b1, rk[10]));
    xor_into(p + 32, _mm_aesenclast_si128(b2, rk[10]));
    xor_into(p + 48, _mm_aesenclast_si128(b3, rk[10]));
    ctr += 4;
    p += 64;
    blocks -= 4;
  }
  for (; blocks > 0; --blocks, ++ctr, p += 16) {
    xor_into(p, encrypt1(ctr_block(nonce_sw, ctr), rk));
  }
  if (tail > 0) {
    alignas(16) uint8_t ks[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(ks),
                    encrypt1(ctr_block(nonce_sw, ctr), rk));
    for (size_t i = 0; i < tail; ++i) p[i] ^= ks[i];
  }
}

bool use_aesni() {
  return g_backend == mb::Backend::kBatched && cpu_has_aesni();
}

#endif  // TENET_AESNI_KERNEL

}  // namespace

namespace mb {

Backend backend() { return g_backend; }

Backend set_backend(Backend b) {
  const Backend prev = g_backend;
  g_backend = b;
  return prev;
}

bool aesni_available() {
#if defined(TENET_AESNI_KERNEL)
  return cpu_has_aesni();
#else
  return false;
#endif
}

}  // namespace mb

Aes128::Aes128(const AesKey128& key) {
  work::charge_aes_key_schedule(1);
#if defined(TENET_AESNI_KERNEL)
  if (use_aesni()) {
    expand_key_aesni(key, round_keys_);
    return;
  }
#endif
  expand_key_portable(key, round_keys_);
}

void Aes128::encrypt_block(AesBlock& b) const {
  work::charge_aes_blocks(1);
#if defined(TENET_AESNI_KERNEL)
  if (use_aesni()) {
    encrypt_block_aesni(round_keys_, b.data());
    return;
  }
#endif
  encrypt_portable(round_keys_, b.data());
}

void Aes128::decrypt_block(AesBlock& b) const {
  work::charge_aes_blocks(1);
  auto add_round_key = [&](int r) {
    for (int i = 0; i < 16; ++i) b[i] ^= round_keys_[static_cast<size_t>(r)][i];
  };
  auto inv_sub_bytes = [&] {
    for (auto& v : b) v = inv_sbox_at(v);
  };
  auto inv_shift_rows = [&] {
    AesBlock t = b;
    for (int r = 1; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        b[static_cast<size_t>(r + 4 * ((c + r) % 4))] = t[static_cast<size_t>(r + 4 * c)];
      }
    }
  };
  auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = &b[static_cast<size_t>(4 * c)];
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<uint8_t>(gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9));
      col[1] = static_cast<uint8_t>(gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13));
      col[2] = static_cast<uint8_t>(gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11));
      col[3] = static_cast<uint8_t>(gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14));
    }
  };

  add_round_key(10);
  for (int round = 9; round >= 1; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
}

Bytes Aes128::ecb_encrypt(BytesView plaintext) const {
  if (plaintext.size() % 16 != 0) {
    throw std::invalid_argument("Aes128::ecb_encrypt: size not multiple of 16");
  }
  Bytes out(plaintext.begin(), plaintext.end());
  for (size_t off = 0; off < out.size(); off += 16) {
    AesBlock block;
    std::memcpy(block.data(), out.data() + off, 16);
    encrypt_block(block);
    std::memcpy(out.data() + off, block.data(), 16);
  }
  return out;
}

Bytes Aes128::ecb_decrypt(BytesView ciphertext) const {
  if (ciphertext.size() % 16 != 0) {
    throw std::invalid_argument("Aes128::ecb_decrypt: size not multiple of 16");
  }
  Bytes out(ciphertext.begin(), ciphertext.end());
  for (size_t off = 0; off < out.size(); off += 16) {
    AesBlock block;
    std::memcpy(block.data(), out.data() + off, 16);
    decrypt_block(block);
    std::memcpy(out.data() + off, block.data(), 16);
  }
  return out;
}

Bytes Aes128::ecb_encrypt_padded(BytesView plaintext) const {
  const size_t pad = 16 - (plaintext.size() % 16);
  Bytes padded(plaintext.begin(), plaintext.end());
  padded.insert(padded.end(), pad, static_cast<uint8_t>(pad));
  return ecb_encrypt(padded);
}

Bytes Aes128::ecb_decrypt_padded(BytesView ciphertext) const {
  if (ciphertext.empty()) throw std::invalid_argument("ecb_decrypt_padded: empty");
  Bytes padded = ecb_decrypt(ciphertext);
  const uint8_t pad = padded.back();
  if (pad == 0 || pad > 16 || pad > padded.size()) {
    throw std::invalid_argument("ecb_decrypt_padded: bad padding");
  }
  for (size_t i = padded.size() - pad; i < padded.size(); ++i) {
    if (padded[i] != pad) throw std::invalid_argument("ecb_decrypt_padded: bad padding");
  }
  // erase, not resize: resize's grow path can never run here, but GCC's
  // -Wstringop-overflow analyses it anyway.
  padded.erase(padded.end() - pad, padded.end());
  return padded;
}

Bytes Aes128::ctr_crypt(uint64_t nonce, uint64_t initial_counter,
                        BytesView data) const {
  Bytes out(data.begin(), data.end());
  ctr_xor(nonce, initial_counter, out.data(), out.size());
  return out;
}

void Aes128::ctr_xor(uint64_t nonce, uint64_t initial_counter, uint8_t* data,
                     size_t len) const {
  work::charge_aes_blocks((len + 15) / 16);
#if defined(TENET_AESNI_KERNEL)
  if (use_aesni()) {
    ctr_xor_aesni(round_keys_, nonce, initial_counter, data, len);
    return;
  }
#endif
  ctr_xor_portable(round_keys_, nonce, initial_counter, data, len);
}

}  // namespace tenet::crypto
