// Arbitrary-precision unsigned integers with Montgomery modular arithmetic.
//
// Backs the 1024-bit Diffie-Hellman exchange the paper performs during
// remote attestation (§2.2, Table 1) and the Schnorr signatures we use as
// the EPID stand-in for QUOTE verification. Limb multiply-accumulate
// operations are reported to the work meter, which is how DH comes to
// dominate the attestation cycle counts exactly as in the paper.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "crypto/bignum_ifma.h"
#include "crypto/bytes.h"

namespace tenet::crypto {

class Drbg;
struct DivRem;

/// Non-negative big integer; little-endian 64-bit limbs, always normalized
/// (no high zero limbs; zero is an empty limb vector).
class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(uint64_t v);

  static BigInt from_hex(std::string_view hex);
  static BigInt from_bytes_be(BytesView bytes);

  /// Minimal-length big-endian encoding (empty for zero).
  [[nodiscard]] Bytes to_bytes_be() const;
  /// Fixed-width big-endian encoding, left-padded with zeros.
  /// Throws std::invalid_argument if the value does not fit.
  [[nodiscard]] Bytes to_bytes_be(size_t width) const;
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  [[nodiscard]] size_t bit_length() const;
  [[nodiscard]] bool bit(size_t i) const;
  [[nodiscard]] size_t limb_count() const { return limbs_.size(); }
  [[nodiscard]] uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  /// Three-way compare: -1, 0, +1.
  [[nodiscard]] int cmp(const BigInt& o) const;
  bool operator==(const BigInt& o) const { return limbs_ == o.limbs_; }
  bool operator!=(const BigInt& o) const { return !(*this == o); }
  bool operator<(const BigInt& o) const { return cmp(o) < 0; }
  bool operator<=(const BigInt& o) const { return cmp(o) <= 0; }
  bool operator>(const BigInt& o) const { return cmp(o) > 0; }
  bool operator>=(const BigInt& o) const { return cmp(o) >= 0; }

  [[nodiscard]] BigInt add(const BigInt& o) const;
  /// Subtraction; throws std::underflow_error if o > *this.
  [[nodiscard]] BigInt sub(const BigInt& o) const;
  /// Schoolbook multiplication (work-metered).
  [[nodiscard]] BigInt mul(const BigInt& o) const;
  [[nodiscard]] BigInt shl(size_t bits) const;
  [[nodiscard]] BigInt shr(size_t bits) const;

  /// Binary long division; throws std::domain_error on divide-by-zero.
  /// O(n * bits) — fine for protocol-rate use, not for inner loops
  /// (modexp uses Montgomery reduction instead).
  [[nodiscard]] DivRem div_rem(const BigInt& divisor) const;
  [[nodiscard]] BigInt mod(const BigInt& m) const;

  /// (base ^ exp) mod m for odd m > 1.
  static BigInt mod_exp(const BigInt& base, const BigInt& exp, const BigInt& m);

  /// Uniform value in [lo, hi); requires lo < hi.
  static BigInt random_range(Drbg& rng, const BigInt& lo, const BigInt& hi);

  /// Miller-Rabin probabilistic primality test with `rounds` random bases.
  static bool probably_prime(const BigInt& n, int rounds, Drbg& rng);

 private:
  friend class Montgomery;
  void trim();

  std::vector<uint64_t> limbs_;
};

/// Quotient/remainder pair returned by BigInt::div_rem.
struct DivRem {
  BigInt quotient;
  BigInt remainder;
};

/// Montgomery context for a fixed odd modulus. Constructing one is O(bits)
/// work; reuse it (DhGroup keeps one for p and one for q, FixedBaseTable
/// borrows the group's).
///
/// Work metering: mul charges 2k^2 + 2k limb multiply-adds (CIOS), sqr
/// charges k(k+1)/2 + k^2 + k (symmetric product + separated reduction) —
/// both are the multiply counts the kernels actually execute, so windowed
/// exponentiation shows up in the meter as genuinely fewer operations.
class Montgomery {
 public:
  /// Throws std::invalid_argument unless `modulus` is odd and > 1.
  explicit Montgomery(const BigInt& modulus);

  [[nodiscard]] const BigInt& modulus() const { return n_; }
  [[nodiscard]] size_t limbs() const { return k_; }

  /// Converts into / out of the Montgomery domain.
  [[nodiscard]] BigInt to_mont(const BigInt& x) const;
  [[nodiscard]] BigInt from_mont(const BigInt& x) const;

  /// Montgomery product of two Montgomery-domain values (CIOS).
  [[nodiscard]] BigInt mul(const BigInt& a_mont, const BigInt& b_mont) const;

  /// Montgomery square (dedicated path: ~0.75x the multiplies of mul).
  [[nodiscard]] BigInt sqr(const BigInt& a_mont) const;

  /// (a * b) mod n for normal-domain inputs/outputs.
  [[nodiscard]] BigInt mul_mod(const BigInt& a, const BigInt& b) const;

  /// (base ^ exp) mod n; inputs/outputs in the normal domain. Fixed
  /// 4-bit-window ladder over allocation-free limb kernels; on CPUs with
  /// AVX512-IFMA and moduli of >= 8 limbs the ladder runs on the radix-52
  /// vector backend instead (same results, same metered counts).
  [[nodiscard]] BigInt exp(const BigInt& base, const BigInt& e) const;

 private:
  friend class FixedBaseTable;

  // Windowed ladder on the radix-52 IFMA backend (requires ifma_).
  [[nodiscard]] BigInt exp_ifma(const BigInt& base, const BigInt& e) const;

  // Raw-limb kernels. Operands are k_-limb little-endian buffers; `out`
  // may alias an input (results are staged through thread-local scratch).
  void mont_mul_limbs(const uint64_t* a, const uint64_t* b, uint64_t* out) const;
  void mont_sqr_limbs(const uint64_t* a, uint64_t* out) const;
  // Copies x (must be < n) into a k_-limb zero-padded buffer.
  void load_limbs(const BigInt& x, uint64_t* out) const;
  [[nodiscard]] BigInt from_limbs(const uint64_t* x) const;

  BigInt n_;
  size_t k_;         // limb count of the modulus
  uint64_t n0_inv_;  // -n^{-1} mod 2^64
  BigInt r_mod_n_;   // R mod n, R = 2^(64k)
  BigInt r2_mod_n_;  // R^2 mod n
  ifma::Ctx ifma_;   // radix-52 backend; empty when unsupported
};

/// Precomputed radix-16 power table for one fixed base: entry (w, d) holds
/// base^(d * 16^w) in the Montgomery domain, so base^e is one Montgomery
/// multiply per non-zero 4-bit digit of e — no squarings at all. This is
/// the fast path for g^x in every DH handshake (the generator is fixed
/// across all remote attestations).
///
/// Construction is one-time setup (like building a Montgomery context) and
/// is deliberately not charged to the work meter; evaluation charges the
/// multiplies it actually performs. See DESIGN.md "Performance kernels".
class FixedBaseTable {
 public:
  /// `ctx` must outlive the table. Supports exponents up to max_exp_bits.
  FixedBaseTable(const Montgomery& ctx, const BigInt& base, size_t max_exp_bits);

  /// base^e mod n. Falls back to generic ctx.exp for oversized exponents.
  [[nodiscard]] BigInt power(const BigInt& e) const;

  [[nodiscard]] size_t windows() const { return windows_; }

 private:
  [[nodiscard]] const uint64_t* entry(size_t window, uint64_t digit) const {
    return table_.data() + (window * 16 + digit) * ctx_->limbs();
  }
  [[nodiscard]] const uint64_t* entry52(size_t window, uint64_t digit) const {
    return table52_.data() + (window * 16 + digit) * ctx_->ifma_.lp;
  }

  const Montgomery* ctx_;
  BigInt base_;
  size_t windows_;
  // Exactly one of these is populated: table52_ when the context has the
  // radix-52 IFMA backend, table_ otherwise.
  std::vector<uint64_t> table_;    // windows_ x 16 x k 64-bit limbs
  std::vector<uint64_t> table52_;  // windows_ x 16 x lp 52-bit limbs
};

}  // namespace tenet::crypto
