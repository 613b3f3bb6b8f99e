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
// Row structure (operand scanning, one row per a-limb). Row i adds
// a_i*b + m_i*n, 104-bit products split into 52-bit halves: the low halves
// land on lane j of the row's frame, the high halves on lane j+1, and the
// frame then shifts down one limb. The four madd groups never touch the
// accumulator directly: the two low groups sum into a scratch vector seeded
// with the previous row's high products (which, one shift later, sit on the
// same lanes), the two high groups into a fresh pending vector, and the
// scratch reaches the accumulator as one add before the shift. The
// accumulator's own chain is one add and one shift per row; the madds hang
// off it.
//
// The reduction digit m, the one that zeroes the low limb (limb i) of the
// running sum mod 2^52, comes from scalars. With n0' = -n^-1 mod 2^52 and
// lo/hi the 52-bit halves of a 104-bit product: x0 and w hold the frame's
// positions 0 and 1 (limbs i and i+1) as summed over rows < i, so the
// vector lanes 0 and 1 go stale and are overwritten at the end. Row i
// computes
//   m   = lo52(x0*n0' + lo52(a_i*b0*n0'))
//   x0' = ((x0 + lo(a_i*b0)) >> 52) + (m != 0) + hi(a_i*b0) + hi(m*n0)
//         + w + lo(a_i*b1) + lo(m*n1)
//   w'  = lane 2 of (accumulator + pending) + lo(a_i*b2) + lo(m*n2)
//         + hi(a_i*b1) + hi(m*n1)
// (m != 0) is the carry out of the freed limb: x0 + lo(a_i*b0) + lo(m*n0)
// is a multiple of 2^52 by the choice of m, and since n0' is odd, m is 0
// exactly when the low 52 bits of x0 + lo(a_i*b0) are. Lane 2 is read at
// the start of the row and first reaches an m two rows later, so the scalar
// chain never waits on the vector unit. The terms that depend only on a_i
// come from an IFMA pre-pass over a, eight rows per madd, which leaves
// four scalar multiplies per row, all on m or x0. m depends only on the
// value mod 2^52, so it is the digit any exact AMM picks and the output is
// the same value in [0, 2n).
//
// Every position takes at most 4*(2^52-1) per row over at most l <= 64
// rows, so lanes, x0 and w stay below 2^61 for every supported size.
//
// The maskz_ forms of the shift intrinsics compile to the plain
// instructions; GCC 12's unmasked forms pass an undefined source operand
// that trips -Wmaybe-uninitialized. For the same reason lane 2 is read by
// vector subscript, not through a 128-bit cast.
template <int NC>
__attribute__((target("avx512f,avx512ifma"))) void amm_t(
    const uint64_t* a, const uint64_t* b, const uint64_t* n, uint64_t n0inv52,
    int l, uint64_t* out) {
  using u128 = unsigned __int128;
  constexpr int kLp = 8 * NC;
  __m512i acc[NC], pend[NC], bv[NC], nv[NC];
  const __m512i zero = _mm512_setzero_si512();
  for (int c = 0; c < NC; ++c) {
    acc[c] = zero;
    pend[c] = zero;
    bv[c] = _mm512_loadu_si512(b + 8 * c);
    nv[c] = _mm512_loadu_si512(n + 8 * c);
  }
  // Pre-pass: every row's a_i-only terms.
  enum { kAb0Lo, kAb0Hi, kAb1Lo, kAb1Hi, kAb2Lo, kAbN, kTerms };
  alignas(64) uint64_t pre[kTerms * kLp];
  {
    const __m512i b0 = _mm512_set1_epi64(static_cast<long long>(b[0]));
    const __m512i b1 = _mm512_set1_epi64(static_cast<long long>(b[1]));
    const __m512i b2 = _mm512_set1_epi64(static_cast<long long>(b[2]));
    const __m512i bn =
        _mm512_set1_epi64(static_cast<long long>((b[0] * n0inv52) & kMask52));
    for (int c = 0; c < NC; ++c) {
      const __m512i av = _mm512_loadu_si512(a + 8 * c);
      uint64_t* p = pre + 8 * c;
      _mm512_store_si512(p + kAb0Lo * kLp, _mm512_madd52lo_epu64(zero, av, b0));
      _mm512_store_si512(p + kAb0Hi * kLp, _mm512_madd52hi_epu64(zero, av, b0));
      _mm512_store_si512(p + kAb1Lo * kLp, _mm512_madd52lo_epu64(zero, av, b1));
      _mm512_store_si512(p + kAb1Hi * kLp, _mm512_madd52hi_epu64(zero, av, b1));
      _mm512_store_si512(p + kAb2Lo * kLp, _mm512_madd52lo_epu64(zero, av, b2));
      _mm512_store_si512(p + kAbN * kLp, _mm512_madd52lo_epu64(zero, av, bn));
    }
  }
  // One 64x64->128 multiply by y << 12 gives both halves of the 104-bit
  // product x*y: the high 64 bits are hi(x*y), the low 64 bits lo(x*y) << 12.
  const uint64_t n0s = n[0] << 12, n1s = n[1] << 12, n2 = n[2];
  uint64_t x0 = 0, w = 0;
  for (int i = 0; i < l; ++i) {
    const auto lane2 =
        static_cast<uint64_t>(_mm512_add_epi64(acc[0], pend[0])[2]);
    const uint64_t* r = pre + i;  // row i's pre-pass terms, kLp apart
    const uint64_t m = (x0 * n0inv52 + r[kAbN * kLp]) & kMask52;
    const u128 mn0 = static_cast<u128>(m) * n0s;
    const u128 mn1 = static_cast<u128>(m) * n1s;
    // (m + kMask52) >> 52 is (m != 0), branch-free.
    x0 = ((x0 + r[kAb0Lo * kLp]) >> 52) + ((m + kMask52) >> 52) +
         r[kAb0Hi * kLp] + static_cast<uint64_t>(mn0 >> 64) + w +
         r[kAb1Lo * kLp] + (static_cast<uint64_t>(mn1) >> 12);
    w = lane2 + r[kAb2Lo * kLp] + ((m * n2) & kMask52) + r[kAb1Hi * kLp] +
        static_cast<uint64_t>(mn1 >> 64);
    const __m512i ai = _mm512_set1_epi64(static_cast<long long>(a[i]));
    const __m512i mv = _mm512_set1_epi64(static_cast<long long>(m));
    __m512i lo[NC];
    for (int c = 0; c < NC; ++c)
      lo[c] = _mm512_madd52lo_epu64(pend[c], ai, bv[c]);
    for (int c = 0; c < NC; ++c)
      lo[c] = _mm512_madd52lo_epu64(lo[c], mv, nv[c]);
    for (int c = 0; c < NC; ++c)
      pend[c] = _mm512_madd52hi_epu64(zero, ai, bv[c]);
    for (int c = 0; c < NC; ++c)
      pend[c] = _mm512_madd52hi_epu64(pend[c], mv, nv[c]);
    for (int c = 0; c < NC; ++c) acc[c] = _mm512_add_epi64(acc[c], lo[c]);
    for (int c = 0; c < NC; ++c) {
      const __m512i next = (c + 1 < NC) ? acc[c + 1] : zero;
      acc[c] = _mm512_maskz_alignr_epi64(0xFF, next, acc[c], 1);
    }
  }
  for (int c = 0; c < NC; ++c) acc[c] = _mm512_add_epi64(acc[c], pend[c]);
  acc[0] = _mm512_mask_set1_epi64(acc[0], 1, static_cast<long long>(x0));
  acc[0] = _mm512_mask_set1_epi64(acc[0], 2, static_cast<long long>(w));
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
