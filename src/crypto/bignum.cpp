#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "crypto/rng.h"
#include "crypto/work.h"

namespace tenet::crypto {

using u128 = unsigned __int128;

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt::BigInt(uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

BigInt BigInt::from_hex(std::string_view hex) {
  return from_bytes_be(hex_decode(hex));
}

BigInt BigInt::from_bytes_be(BytesView bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    // byte i (from MSB) lands at bit position 8*(size-1-i).
    const size_t bitpos = 8 * (bytes.size() - 1 - i);
    out.limbs_[bitpos / 64] |= static_cast<uint64_t>(bytes[i]) << (bitpos % 64);
  }
  out.trim();
  return out;
}

Bytes BigInt::to_bytes_be() const {
  const size_t bits = bit_length();
  return to_bytes_be((bits + 7) / 8);
}

Bytes BigInt::to_bytes_be(size_t width) const {
  if (bit_length() > width * 8) {
    throw std::invalid_argument("BigInt::to_bytes_be: value too wide");
  }
  Bytes out(width, 0);
  for (size_t i = 0; i < width; ++i) {
    const size_t bitpos = 8 * (width - 1 - i);
    const size_t limb = bitpos / 64;
    if (limb < limbs_.size()) {
      out[i] = static_cast<uint8_t>(limbs_[limb] >> (bitpos % 64));
    }
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = hex_encode(to_bytes_be());
  const size_t nz = s.find_first_not_of('0');
  return s.substr(nz);
}

size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  const uint64_t top = limbs_.back();
  return (limbs_.size() - 1) * 64 + (64 - static_cast<size_t>(__builtin_clzll(top)));
}

bool BigInt::bit(size_t i) const {
  const size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigInt::cmp(const BigInt& o) const {
  if (limbs_.size() != o.limbs_.size()) {
    return limbs_.size() < o.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] < o.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::add(const BigInt& o) const {
  BigInt out;
  const size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.assign(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    const u128 sum = static_cast<u128>(i < limbs_.size() ? limbs_[i] : 0) +
                     (i < o.limbs_.size() ? o.limbs_[i] : 0) + carry;
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigInt BigInt::sub(const BigInt& o) const {
  if (cmp(o) < 0) throw std::underflow_error("BigInt::sub: negative result");
  BigInt out;
  out.limbs_.assign(limbs_.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    const uint64_t rhs = i < o.limbs_.size() ? o.limbs_[i] : 0;
    const uint64_t lhs = limbs_[i];
    uint64_t diff = lhs - rhs;
    const uint64_t borrow1 = lhs < rhs ? 1u : 0u;
    const uint64_t diff2 = diff - borrow;
    const uint64_t borrow2 = diff < borrow ? 1u : 0u;
    out.limbs_[i] = diff2;
    borrow = borrow1 + borrow2;
  }
  out.trim();
  return out;
}

BigInt BigInt::mul(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt{};
  BigInt out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  work::charge_limb_muladds(static_cast<uint64_t>(limbs_.size()) * o.limbs_.size());
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < o.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(limbs_[i]) * o.limbs_[j] +
                       out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.limbs_[i + o.limbs_.size()] = carry;
  }
  out.trim();
  return out;
}

BigInt BigInt::shl(size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  const size_t limb_shift = bits / 64;
  const size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::shr(size_t bits) const {
  const size_t limb_shift = bits / 64;
  const size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt{};
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = bit_shift == 0 ? limbs_[i + limb_shift]
                                   : (limbs_[i + limb_shift] >> bit_shift);
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

DivRem BigInt::div_rem(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt::div_rem: divide by zero");
  if (cmp(divisor) < 0) return {BigInt{}, *this};

  const size_t shift = bit_length() - divisor.bit_length();
  BigInt rem = *this;
  BigInt quot;
  quot.limbs_.assign(shift / 64 + 1, 0);
  BigInt d = divisor.shl(shift);
  for (size_t i = shift + 1; i-- > 0;) {
    if (rem.cmp(d) >= 0) {
      rem = rem.sub(d);
      quot.limbs_[i / 64] |= uint64_t{1} << (i % 64);
    }
    d = d.shr(1);
  }
  quot.trim();
  return {quot, rem};
}

BigInt BigInt::mod(const BigInt& m) const { return div_rem(m).remainder; }

BigInt BigInt::mod_exp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  const Montgomery ctx(m);
  return ctx.exp(base, exp);
}

BigInt BigInt::random_range(Drbg& rng, const BigInt& lo, const BigInt& hi) {
  if (lo.cmp(hi) >= 0) throw std::invalid_argument("BigInt::random_range: lo >= hi");
  const BigInt span = hi.sub(lo);
  const size_t bytes = (span.bit_length() + 7) / 8;
  // Rejection sampling over the minimal byte width.
  for (;;) {
    BigInt candidate = from_bytes_be(rng.bytes(bytes));
    if (candidate.cmp(span) < 0) return lo.add(candidate);
  }
}

bool BigInt::probably_prime(const BigInt& n, int rounds, Drbg& rng) {
  const BigInt one(1), two(2), three(3);
  if (n.cmp(two) < 0) return false;
  if (n == two || n == three) return true;
  if (!n.is_odd()) return false;

  // Quick trial division by small primes.
  static constexpr uint64_t kSmallPrimes[] = {3,  5,  7,  11, 13, 17, 19, 23,
                                              29, 31, 37, 41, 43, 47, 53, 59};
  for (uint64_t p : kSmallPrimes) {
    const BigInt bp(p);
    if (n == bp) return true;
    if (n.mod(bp).is_zero()) return false;
  }

  // n - 1 = d * 2^s with d odd.
  const BigInt n_minus_1 = n.sub(one);
  BigInt d = n_minus_1;
  size_t s = 0;
  while (!d.is_odd()) {
    d = d.shr(1);
    ++s;
  }

  const Montgomery ctx(n);
  // n-1 in the Montgomery domain, so the squaring chain never has to
  // convert back: x == n-1 iff mont(x) == mont(n-1).
  const BigInt n_minus_1_m = ctx.to_mont(n_minus_1);
  for (int round = 0; round < rounds; ++round) {
    const BigInt a = random_range(rng, two, n_minus_1);
    const BigInt x = ctx.exp(a, d);
    if (x == one || x == n_minus_1) continue;
    BigInt xm = ctx.to_mont(x);
    bool composite = true;
    for (size_t i = 0; i + 1 < s; ++i) {
      xm = ctx.sqr(xm);
      if (xm == n_minus_1_m) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Montgomery
// ---------------------------------------------------------------------------

Montgomery::Montgomery(const BigInt& modulus) : n_(modulus) {
  if (!n_.is_odd() || n_.bit_length() < 2) {
    throw std::invalid_argument("Montgomery: modulus must be odd and > 1");
  }
  k_ = n_.limbs_.size();

  // n0_inv = -n^{-1} mod 2^64 via Newton iteration (converges in 6 steps).
  const uint64_t n0 = n_.limbs_[0];
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  n0_inv_ = ~inv + 1;  // -inv mod 2^64

  // One-time context setup is not metered (per-operation accounting starts
  // at mul/sqr/exp; see DESIGN.md "Performance kernels").
  work::Scope no_meter(nullptr);

  // In-place modular doubling on a k_-limb buffer holding a value < n.
  const uint64_t* nl = n_.limbs_.data();
  const auto dbl_mod = [&](uint64_t* v) {
    uint64_t carry = 0;
    for (size_t i = 0; i < k_; ++i) {
      const uint64_t next = v[i] >> 63;
      v[i] = (v[i] << 1) | carry;
      carry = next;
    }
    bool ge = carry != 0;
    if (!ge) {
      ge = true;
      for (size_t i = k_; i-- > 0;) {
        if (v[i] != nl[i]) {
          ge = v[i] > nl[i];
          break;
        }
      }
    }
    if (ge) {
      uint64_t borrow = 0;
      for (size_t i = 0; i < k_; ++i) {
        const uint64_t lhs = v[i];
        const uint64_t diff = lhs - nl[i];
        v[i] = diff - borrow;
        borrow = (lhs < nl[i]) + (diff < borrow);
      }
    }
  };

  // R mod n, R = 2^(64k): start from 2^(bits-1) (already < n) and double
  // the remaining 64k - (bits-1) times — at most ~127 cheap limb passes
  // instead of 64k BigInt rounds.
  const size_t bits = n_.bit_length();
  std::vector<uint64_t> r(k_, 0);
  r[(bits - 1) / 64] = uint64_t{1} << ((bits - 1) % 64);
  for (size_t i = bits - 1; i < 64 * k_; ++i) dbl_mod(r.data());
  r_mod_n_ = from_limbs(r.data());

  // R^2 mod n via the identity mont_mul(2^(64k+a), 2^(64k+b)) = 2^(64k+a+b)
  // mod n: square-and-double the offset up from 0 to 64k in log2(64k) steps.
  const size_t target = 64 * k_;
  std::vector<uint64_t> g = r;
  for (size_t bit = size_t{1} << (std::bit_width(target) - 1); bit != 0;
       bit >>= 1) {
    mont_mul_limbs(g.data(), g.data(), g.data());  // offset j -> 2j
    if (target & bit) dbl_mod(g.data());           // offset 2j -> 2j + 1
  }
  r2_mod_n_ = from_limbs(g.data());

  // Radix-52 IFMA backend, when the CPU and the modulus size support it.
  if (ifma::available() && k_ >= 8) {
    // R52 = 2^(52 l) mod n, reached from R = 2^(64k) mod n by doubling
    // the remaining 52l - 64k (< 64) times.
    std::vector<uint64_t> r52 = r;
    for (size_t i = 64 * k_; i < 52 * ifma::limbs52(k_); ++i)
      dbl_mod(r52.data());
    const BigInt r52sq = mul_mod(from_limbs(r52.data()), from_limbs(r52.data()));
    std::vector<uint64_t> n64(k_, 0), r52sq64(k_, 0);
    load_limbs(n_, n64.data());
    load_limbs(r52sq, r52sq64.data());
    ifma::init(ifma_, n64.data(), k_, n0_inv_, r52sq64.data());
  }
}

namespace {

// Reusable per-thread limb scratch so the hot kernels never heap-allocate
// in steady state. Montgomery contexts are shared (DhGroup statics), so the
// scratch cannot live on the context itself.
uint64_t* scratch_limbs(size_t n) {
  thread_local std::vector<uint64_t> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// Exponent digit d_w: bits [4w, 4w+3] of e.
uint64_t exp_digit(const BigInt& e, size_t w) {
  uint64_t d = 0;
  for (size_t b = 0; b < 4; ++b) {
    if (e.bit(4 * w + b)) d |= uint64_t{1} << b;
  }
  return d;
}

}  // namespace

void Montgomery::load_limbs(const BigInt& x, uint64_t* out) const {
  const size_t n = std::min(x.limbs_.size(), k_);
  std::fill(out + n, out + k_, 0);
  std::copy_n(x.limbs_.begin(), n, out);
}

BigInt Montgomery::from_limbs(const uint64_t* x) const {
  BigInt out;
  out.limbs_.assign(x, x + k_);
  out.trim();
  return out;
}

void Montgomery::mont_mul_limbs(const uint64_t* a, const uint64_t* b,
                                uint64_t* out) const {
  // CIOS (coarsely integrated operand scanning) Montgomery multiplication.
  work::charge_limb_muladds(2 * static_cast<uint64_t>(k_) * k_ + 2 * k_);

  uint64_t* t = scratch_limbs(k_ + 2);
  std::fill(t, t + k_ + 2, 0);
  const uint64_t* n = n_.limbs_.data();

  for (size_t i = 0; i < k_; ++i) {
    const uint64_t ai = a[i];
    // t += ai * b
    uint64_t carry = 0;
    for (size_t j = 0; j < k_; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    {
      const u128 cur = static_cast<u128>(t[k_]) + carry;
      t[k_] = static_cast<uint64_t>(cur);
      t[k_ + 1] = static_cast<uint64_t>(cur >> 64);
    }
    // m = t[0] * n0_inv mod 2^64; t += m * n; t >>= 64
    const uint64_t m = t[0] * n0_inv_;
    {
      const u128 cur = static_cast<u128>(m) * n[0] + t[0];
      carry = static_cast<uint64_t>(cur >> 64);
    }
    for (size_t j = 1; j < k_; ++j) {
      const u128 cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    {
      const u128 cur = static_cast<u128>(t[k_]) + carry;
      t[k_ - 1] = static_cast<uint64_t>(cur);
      t[k_] = t[k_ + 1] + static_cast<uint64_t>(cur >> 64);
      t[k_ + 1] = 0;
    }
  }

  // Result is in t[0..k_]; one conditional subtraction brings it below n.
  bool ge = t[k_] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = k_; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < k_; ++i) {
      const uint64_t lhs = t[i];
      const uint64_t diff = lhs - n[i];
      const uint64_t out_limb = diff - borrow;
      borrow = (lhs < n[i]) + (diff < borrow);
      out[i] = out_limb;
    }
  } else {
    std::copy(t, t + k_, out);
  }
}

void Montgomery::mont_sqr_limbs(const uint64_t* a, uint64_t* out) const {
  // Symmetric product (k(k+1)/2 multiplies) + separated Montgomery
  // reduction (k^2 + k multiplies) — ~0.75x the multiplies of mul().
  work::charge_limb_muladds(static_cast<uint64_t>(k_) * (k_ + 1) / 2 +
                            static_cast<uint64_t>(k_) * k_ + k_);

  uint64_t* t = scratch_limbs(2 * k_ + 1 + k_ + 2) + k_ + 2;  // after mul scratch
  std::fill(t, t + 2 * k_ + 1, 0);
  const uint64_t* n = n_.limbs_.data();

  // Cross products a_i * a_j for i < j.
  for (size_t i = 0; i + 1 < k_; ++i) {
    uint64_t carry = 0;
    for (size_t j = i + 1; j < k_; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    t[i + k_] = carry;  // first write at this position (see loop bounds)
  }
  // Double the cross products: t <<= 1.
  uint64_t shift_carry = 0;
  for (size_t i = 0; i < 2 * k_; ++i) {
    const uint64_t next_carry = t[i] >> 63;
    t[i] = (t[i] << 1) | shift_carry;
    shift_carry = next_carry;
  }
  // Add the diagonal squares a_i^2 at position 2i.
  uint64_t carry = 0;
  for (size_t i = 0; i < k_; ++i) {
    const u128 lo = static_cast<u128>(a[i]) * a[i] + t[2 * i] + carry;
    t[2 * i] = static_cast<uint64_t>(lo);
    const u128 hi = static_cast<u128>(t[2 * i + 1]) +
                    static_cast<uint64_t>(lo >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(hi);
    carry = static_cast<uint64_t>(hi >> 64);
  }
  // carry is zero here: a^2 < R^2 fits exactly in 2k limbs.

  // Montgomery reduction of the 2k-limb product.
  for (size_t i = 0; i < k_; ++i) {
    const uint64_t m = t[i] * n0_inv_;
    uint64_t c = 0;
    for (size_t j = 0; j < k_; ++j) {
      const u128 cur = static_cast<u128>(m) * n[j] + t[i + j] + c;
      t[i + j] = static_cast<uint64_t>(cur);
      c = static_cast<uint64_t>(cur >> 64);
    }
    for (size_t idx = i + k_; c != 0; ++idx) {
      const u128 cur = static_cast<u128>(t[idx]) + c;
      t[idx] = static_cast<uint64_t>(cur);
      c = static_cast<uint64_t>(cur >> 64);
    }
  }

  // Result is t[k_..2k_] (2k_ inclusive for the possible top carry).
  const uint64_t* r = t + k_;
  bool ge = t[2 * k_] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = k_; i-- > 0;) {
      if (r[i] != n[i]) {
        ge = r[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < k_; ++i) {
      const uint64_t lhs = r[i];
      const uint64_t diff = lhs - n[i];
      const uint64_t out_limb = diff - borrow;
      borrow = (lhs < n[i]) + (diff < borrow);
      out[i] = out_limb;
    }
  } else {
    std::copy(r, r + k_, out);
  }
}

// Scratch layout (single allocation, indices into one thread-local buffer):
//   [0, k+2)          mont_mul_limbs working row
//   [k+2, 3k+3)       mont_sqr_limbs 2k+1-limb product
//   [3k+3, 4k+3)      staged operand a
//   [4k+3, 5k+3)      staged operand b
// The kernels only ever request prefixes of the same buffer, so pointers
// taken after the initial full-size request stay valid.

BigInt Montgomery::mul(const BigInt& a_mont, const BigInt& b_mont) const {
  uint64_t* buf = scratch_limbs(5 * k_ + 3);
  uint64_t* a = buf + 3 * k_ + 3;
  uint64_t* b = buf + 4 * k_ + 3;
  load_limbs(a_mont, a);
  load_limbs(b_mont, b);
  mont_mul_limbs(a, b, a);
  return from_limbs(a);
}

BigInt Montgomery::sqr(const BigInt& a_mont) const {
  uint64_t* a = scratch_limbs(5 * k_ + 3) + 3 * k_ + 3;
  load_limbs(a_mont, a);
  mont_sqr_limbs(a, a);
  return from_limbs(a);
}

BigInt Montgomery::to_mont(const BigInt& x) const {
  BigInt reduced = x.cmp(n_) >= 0 ? x.mod(n_) : x;
  return mul(reduced, r2_mod_n_);
}

BigInt Montgomery::from_mont(const BigInt& x) const {
  return mul(x, BigInt(1));
}

BigInt Montgomery::mul_mod(const BigInt& a, const BigInt& b) const {
  return from_mont(mul(to_mont(a), to_mont(b)));
}

BigInt Montgomery::exp(const BigInt& base, const BigInt& e) const {
  if (e.is_zero()) return BigInt(1).mod(n_);
  if (ifma_) return exp_ifma(base, e);

  // Fixed 4-bit-window ladder: precompute base^0..base^15 in the
  // Montgomery domain, then per window 4 dedicated squarings plus at most
  // one multiply. Vs. binary square-and-multiply this trades ~bits/2
  // multiplies for 14 table entries and runs every inner op on raw limb
  // buffers (no BigInt allocation in the loop).
  const BigInt base_m = to_mont(base);
  std::vector<uint64_t> table(16 * k_);
  load_limbs(r_mod_n_, table.data());  // base^0 = 1 in the Montgomery domain
  load_limbs(base_m, table.data() + k_);
  for (size_t d = 2; d < 16; ++d) {
    mont_mul_limbs(table.data() + (d - 1) * k_, table.data() + k_,
                   table.data() + d * k_);
  }

  const size_t nwin = (e.bit_length() + 3) / 4;
  std::vector<uint64_t> acc(k_);
  // Top window is non-zero (it contains the exponent's MSB).
  std::copy_n(table.data() + exp_digit(e, nwin - 1) * k_, k_, acc.data());
  for (size_t w = nwin - 1; w-- > 0;) {
    mont_sqr_limbs(acc.data(), acc.data());
    mont_sqr_limbs(acc.data(), acc.data());
    mont_sqr_limbs(acc.data(), acc.data());
    mont_sqr_limbs(acc.data(), acc.data());
    const uint64_t d = exp_digit(e, w);
    if (d != 0) mont_mul_limbs(acc.data(), table.data() + d * k_, acc.data());
  }
  return from_mont(from_limbs(acc.data()));
}

BigInt Montgomery::exp_ifma(const BigInt& base, const BigInt& e) const {
  // Same 4-bit-window ladder as the scalar path, but every Montgomery
  // operation is one radix-52 AMM on the vector backend. The work meter is
  // charged with the canonical 64-bit-limb costs (2k^2+2k per multiply,
  // k(k+1)/2+k^2+k per squaring) so counts are identical to the scalar
  // path — the meter models algorithmic work, not the backend (DESIGN.md).
  const uint64_t c_mul = 2 * static_cast<uint64_t>(k_) * k_ + 2 * k_;
  const uint64_t c_sqr = static_cast<uint64_t>(k_) * (k_ + 1) / 2 +
                         static_cast<uint64_t>(k_) * k_ + k_;
  const size_t lp = ifma_.lp;

  // table[d] = base^d in the R52 Montgomery domain, values in [0, 2n).
  std::vector<uint64_t> table(16 * lp), x52(lp, 0);
  std::copy(ifma_.one_dom.begin(), ifma_.one_dom.end(), table.begin());
  {
    const BigInt reduced = base.cmp(n_) >= 0 ? base.mod(n_) : base;
    std::vector<uint64_t> x64(k_, 0);
    load_limbs(reduced, x64.data());
    ifma::to52(x64.data(), k_, x52.data(), lp);
  }
  work::charge_limb_muladds(c_mul);  // domain entry (to_mont analogue)
  ifma::amm(ifma_, x52.data(), ifma_.r52sq.data(), table.data() + lp);
  for (size_t d = 2; d < 16; ++d) {
    work::charge_limb_muladds(c_mul);
    ifma::amm(ifma_, table.data() + (d - 1) * lp, table.data() + lp,
              table.data() + d * lp);
  }

  const size_t nwin = (e.bit_length() + 3) / 4;
  std::vector<uint64_t> acc(lp);
  std::copy_n(table.data() + exp_digit(e, nwin - 1) * lp, lp, acc.data());
  for (size_t w = nwin - 1; w-- > 0;) {
    work::charge_limb_muladds(4 * c_sqr);
    for (int s = 0; s < 4; ++s) ifma::amm(ifma_, acc.data(), acc.data(), acc.data());
    const uint64_t d = exp_digit(e, w);
    if (d != 0) {
      work::charge_limb_muladds(c_mul);
      ifma::amm(ifma_, acc.data(), table.data() + d * lp, acc.data());
    }
  }

  // Domain exit (from_mont analogue), then canonicalize from [0, 2n).
  work::charge_limb_muladds(c_mul);
  std::fill(x52.begin(), x52.end(), 0);
  x52[0] = 1;
  ifma::amm(ifma_, acc.data(), x52.data(), acc.data());
  ifma::reduce_once(ifma_, acc.data());
  std::vector<uint64_t> out64(k_, 0);
  ifma::from52(acc.data(), lp, out64.data(), k_);
  return from_limbs(out64.data());
}

// ---------------------------------------------------------------------------
// FixedBaseTable
// ---------------------------------------------------------------------------

FixedBaseTable::FixedBaseTable(const Montgomery& ctx, const BigInt& base,
                               size_t max_exp_bits)
    : ctx_(&ctx), base_(base), windows_((max_exp_bits + 3) / 4) {
  // One-time setup: like Montgomery-context construction, precomputation is
  // not charged to the work meter (per-operation accounting starts at
  // power(); see DESIGN.md "Performance kernels").
  work::Scope no_meter(nullptr);

  if (ctx.ifma_) {
    // Build the table directly in the radix-52 domain.
    const ifma::Ctx& fc = ctx.ifma_;
    const size_t lp = fc.lp;
    table52_.assign(windows_ * 16 * lp, 0);
    std::vector<uint64_t> base52(lp, 0);
    {
      const BigInt reduced =
          base.cmp(ctx.modulus()) >= 0 ? base.mod(ctx.modulus()) : base;
      std::vector<uint64_t> b64(ctx.limbs(), 0);
      ctx.load_limbs(reduced, b64.data());
      ifma::to52(b64.data(), ctx.limbs(), base52.data(), lp);
    }
    for (size_t w = 0; w < windows_; ++w) {
      uint64_t* slot = table52_.data() + w * 16 * lp;
      std::copy_n(fc.one_dom.data(), lp, slot);  // d = 0
      if (w == 0) {
        ifma::amm(fc, base52.data(), fc.r52sq.data(), slot + lp);
      } else {
        const uint64_t* prev = entry52(w - 1, 1);
        std::copy_n(prev, lp, slot + lp);
        for (int s = 0; s < 4; ++s)
          ifma::amm(fc, slot + lp, slot + lp, slot + lp);
      }
      for (uint64_t d = 2; d < 16; ++d) {
        ifma::amm(fc, slot + (d - 1) * lp, slot + lp, slot + d * lp);
      }
    }
    return;
  }

  const size_t k = ctx.limbs();
  table_.assign(windows_ * 16 * k, 0);
  std::vector<uint64_t> one(k), base_m(k);
  ctx.load_limbs(ctx.r_mod_n_, one.data());
  ctx.load_limbs(ctx.to_mont(base), base_m.data());

  for (size_t w = 0; w < windows_; ++w) {
    uint64_t* slot = table_.data() + w * 16 * k;
    std::copy_n(one.data(), k, slot);  // d = 0
    if (w == 0) {
      std::copy_n(base_m.data(), k, slot + k);
    } else {
      // base^(16^w) = (base^(16^(w-1)))^16: four squarings.
      const uint64_t* prev = entry(w - 1, 1);
      std::copy_n(prev, k, slot + k);
      for (int s = 0; s < 4; ++s) ctx.mont_sqr_limbs(slot + k, slot + k);
    }
    for (uint64_t d = 2; d < 16; ++d) {
      ctx.mont_mul_limbs(slot + (d - 1) * k, slot + k, slot + d * k);
    }
  }
}

BigInt FixedBaseTable::power(const BigInt& e) const {
  if ((e.bit_length() + 3) / 4 > windows_) return ctx_->exp(base_, e);
  if (e.is_zero()) return BigInt(1).mod(ctx_->modulus());
  const size_t nwin = (e.bit_length() + 3) / 4;

  if (ctx_->ifma_) {
    const ifma::Ctx& fc = ctx_->ifma_;
    const uint64_t c_mul = 2 * static_cast<uint64_t>(ctx_->k_) * ctx_->k_ +
                           2 * ctx_->k_;
    std::vector<uint64_t> acc(fc.lp);
    std::copy_n(fc.one_dom.data(), fc.lp, acc.data());
    for (size_t w = 0; w < nwin; ++w) {
      const uint64_t d = exp_digit(e, w);
      if (d != 0) {
        work::charge_limb_muladds(c_mul);
        ifma::amm(fc, acc.data(), entry52(w, d), acc.data());
      }
    }
    work::charge_limb_muladds(c_mul);  // domain exit (from_mont analogue)
    std::vector<uint64_t> one(fc.lp, 0);
    one[0] = 1;
    ifma::amm(fc, acc.data(), one.data(), acc.data());
    ifma::reduce_once(fc, acc.data());
    std::vector<uint64_t> out64(ctx_->k_, 0);
    ifma::from52(acc.data(), fc.lp, out64.data(), ctx_->k_);
    return ctx_->from_limbs(out64.data());
  }

  const size_t k = ctx_->limbs();
  std::vector<uint64_t> acc(k);
  ctx_->load_limbs(ctx_->r_mod_n_, acc.data());
  for (size_t w = 0; w < nwin; ++w) {
    const uint64_t d = exp_digit(e, w);
    if (d != 0) ctx_->mont_mul_limbs(acc.data(), entry(w, d), acc.data());
  }
  return ctx_->from_mont(ctx_->from_limbs(acc.data()));
}

}  // namespace tenet::crypto
