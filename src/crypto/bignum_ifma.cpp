#include "crypto/bignum_ifma.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define TENET_IFMA_KERNELS 1
#include <immintrin.h>
#endif

namespace tenet::crypto::ifma {

namespace {
constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;
}  // namespace

bool available() {
#ifdef TENET_IFMA_KERNELS
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512ifma");
  return ok;
#else
  return false;
#endif
}

size_t limbs52(size_t k) { return (64 * k + 2 + 51) / 52; }

void to52(const uint64_t* x64, size_t k, uint64_t* out52, size_t lp) {
  for (size_t j = 0; j < lp; ++j) {
    const size_t bit = 52 * j;
    const size_t w = bit / 64, off = bit % 64;
    uint64_t v = 0;
    if (w < k) {
      v = x64[w] >> off;
      // A 52-bit limb spans two 64-bit limbs when fewer than 52 bits
      // remain in the current one (off > 64 - 52).
      if (off > 12 && w + 1 < k) v |= x64[w + 1] << (64 - off);
    }
    out52[j] = v & kMask52;
  }
}

void from52(const uint64_t* x52, size_t lp, uint64_t* out64, size_t k) {
  std::memset(out64, 0, k * 8);
  for (size_t j = 0; j < lp; ++j) {
    const size_t bit = 52 * j;
    const size_t w = bit / 64, off = bit % 64;
    if (w < k) out64[w] |= x52[j] << off;
    if (off > 12 && w + 1 < k) out64[w + 1] |= x52[j] >> (64 - off);
  }
}

#ifdef TENET_IFMA_KERNELS

namespace {

// One AMM: out = a*b/2^(52l) mod n, redundant-range closed over [0, 2n).
//
// Row structure (operand scanning, one row per a-limb): add the low halves
// of a_i*b and m*n into the accumulator, shift the accumulator down one
// limb, then add the high halves — which post-shift land on the same lanes
// as their weight-52(j+1) positions, so no second shifted register set is
// needed.
//
// The reduction digit m comes from a scalar copy x0 of the weight-2^0
// limb, which takes the full 104-bit a_i*b_0 and m*n_0 products. m and the
// carry out of the freed limb are then known without waiting on the vector
// madds, and a row reads the vector unit once: lane 0 after the shift,
// which refreshes x0. Vector lane 0 is dead weight after each shift (its
// low madds are shifted out, its high madds are already in x0), and x0 is
// written back into it once, before the final carry pass. m =
// t*(-n^-1) mod 2^52 depends only on the value mod 2^52, so it is the same
// digit any exact AMM picks and the output is the same value in [0, 2n).
//
// Accumulator lanes grow by at most 4*(2^52-1) per row and migrate down one
// lane per row, so they stay far below 2^64 for any supported size; x0 adds
// less than 2^54 to that bound.
//
// The maskz_ forms of the shift intrinsics compile to the plain
// instructions; GCC 12's unmasked forms pass an undefined source operand
// that trips -Wmaybe-uninitialized.
template <int NC>
__attribute__((target("avx512f,avx512ifma"))) void amm_t(
    const uint64_t* a, const uint64_t* b, const uint64_t* n, uint64_t n0inv52,
    int l, uint64_t* out) {
  using u128 = unsigned __int128;
  __m512i acc[NC], bv[NC], nv[NC];
  const __m512i zero = _mm512_setzero_si512();
  for (int c = 0; c < NC; ++c) {
    acc[c] = zero;
    bv[c] = _mm512_loadu_si512(b + 8 * c);
    nv[c] = _mm512_loadu_si512(n + 8 * c);
  }
  const uint64_t b0 = b[0], n0 = n[0];
  uint64_t x0 = 0;
  for (int i = 0; i < l; ++i) {
    u128 t = static_cast<u128>(a[i]) * b0 + x0;
    const uint64_t m = (static_cast<uint64_t>(t) * n0inv52) & kMask52;
    t += static_cast<u128>(m) * n0;  // low 52 bits now zero
    const __m512i ai = _mm512_set1_epi64(static_cast<long long>(a[i]));
    const __m512i mv = _mm512_set1_epi64(static_cast<long long>(m));
    for (int c = 0; c < NC; ++c)
      acc[c] = _mm512_madd52lo_epu64(acc[c], ai, bv[c]);
    for (int c = 0; c < NC; ++c)
      acc[c] = _mm512_madd52lo_epu64(acc[c], mv, nv[c]);
    for (int c = 0; c < NC; ++c) {
      const __m512i next = (c + 1 < NC) ? acc[c + 1] : zero;
      acc[c] = _mm512_maskz_alignr_epi64(0xFF, next, acc[c], 1);
    }
    x0 = static_cast<uint64_t>(t >> 52) + static_cast<uint64_t>(acc[0][0]);
    for (int c = 0; c < NC; ++c)
      acc[c] = _mm512_madd52hi_epu64(acc[c], ai, bv[c]);
    for (int c = 0; c < NC; ++c)
      acc[c] = _mm512_madd52hi_epu64(acc[c], mv, nv[c]);
  }
  acc[0] = _mm512_mask_set1_epi64(acc[0], 1, static_cast<long long>(x0));
  // Carry-propagate the redundant lanes to canonical 52-bit limbs,
  // branch-free. First fold every lane's bits above 52 into the next
  // lane; that leaves each lane below 2^52 + 2^12, so the carries still
  // owed are single bits. A lane then generates a carry if it exceeds the
  // mask and propagates one if it equals it; one 64-bit add over the
  // per-lane bit masks resolves the whole chain at once, as in a
  // carry-lookahead adder. The value is < 2n < 2^(52l), so nothing carries
  // out of the top lane.
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i below = zero;  // previous chunk's bits above 52
  uint64_t gen = 0, prop = 0;
  for (int c = 0; c < NC; ++c) {
    const __m512i hi = _mm512_maskz_srli_epi64(0xFF, acc[c], 52);
    const __m512i carried = _mm512_maskz_alignr_epi64(0xFF, hi, below, 7);
    below = hi;
    acc[c] = _mm512_add_epi64(_mm512_and_si512(acc[c], mask), carried);
    gen |= uint64_t{_mm512_cmpgt_epu64_mask(acc[c], mask)} << (8 * c);
    prop |= uint64_t{_mm512_cmpeq_epu64_mask(acc[c], mask)} << (8 * c);
  }
  const uint64_t carry_in = ((gen << 1) + prop) ^ prop;
  for (int c = 0; c < NC; ++c) {
    // Adding the carry and masking is subtracting the mask, mod 2^52.
    const auto k = static_cast<__mmask8>(carry_in >> (8 * c));
    acc[c] = _mm512_and_si512(_mm512_mask_sub_epi64(acc[c], k, acc[c], mask),
                              mask);
    _mm512_storeu_si512(out + 8 * c, acc[c]);
  }
}

}  // namespace

#endif  // TENET_IFMA_KERNELS

void amm(const Ctx& c, const uint64_t* a, const uint64_t* b, uint64_t* out) {
#ifdef TENET_IFMA_KERNELS
  const uint64_t* n = c.n52.data();
  const int l = static_cast<int>(c.l);
  switch (c.nc) {
    case 2: amm_t<2>(a, b, n, c.n0inv52, l, out); return;
    case 3: amm_t<3>(a, b, n, c.n0inv52, l, out); return;
    case 4: amm_t<4>(a, b, n, c.n0inv52, l, out); return;
    case 5: amm_t<5>(a, b, n, c.n0inv52, l, out); return;
    case 6: amm_t<6>(a, b, n, c.n0inv52, l, out); return;
    case 7: amm_t<7>(a, b, n, c.n0inv52, l, out); return;
    case 8: amm_t<8>(a, b, n, c.n0inv52, l, out); return;
    default: break;
  }
#else
  (void)c;
  (void)a;
  (void)b;
  (void)out;
#endif
  // Callers gate on Ctx's boolean; an empty context never reaches here.
}

void reduce_once(const Ctx& c, uint64_t* x) {
  bool ge = true;
  for (size_t j = c.lp; j-- > 0;) {
    if (x[j] != c.n52[j]) {
      ge = x[j] > c.n52[j];
      break;
    }
  }
  if (!ge) return;
  uint64_t borrow = 0;
  for (size_t j = 0; j < c.lp; ++j) {
    const uint64_t d = x[j] - c.n52[j] - borrow;
    borrow = d >> 63;
    x[j] = d & kMask52;
  }
}

bool init(Ctx& c, const uint64_t* n64, size_t k, uint64_t n0inv64,
          const uint64_t* r52sq64) {
  c = Ctx{};
  if (!available()) return false;
  const size_t l = limbs52(k);
  const size_t lp = (l + 7) & ~size_t{7};
  const int nc = static_cast<int>(lp / 8);
  if (nc < 2 || nc > 8) return false;  // below: scalar wins; above: untested
  c.l = l;
  c.lp = lp;
  c.nc = nc;
  c.n0inv52 = n0inv64 & kMask52;  // valid mod 2^52 since it holds mod 2^64
  c.n52.assign(lp, 0);
  to52(n64, k, c.n52.data(), lp);
  c.r52sq.assign(lp, 0);
  to52(r52sq64, k, c.r52sq.data(), lp);
  // 1 * R52 mod n, the ladder's identity element.
  std::vector<uint64_t> one(lp, 0);
  one[0] = 1;
  c.one_dom.assign(lp, 0);
  amm(c, c.r52sq.data(), one.data(), c.one_dom.data());
  reduce_once(c, c.one_dom.data());
  return true;
}

}  // namespace tenet::crypto::ifma
