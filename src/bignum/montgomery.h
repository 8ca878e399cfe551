// Montgomery modular arithmetic and windowed exponentiation.
//
// This mirrors the implementation strategy the paper attributes to OpenSSL
// (Montgomery reduction + windowed exponentiation), which matters for the
// fidelity of the cost model: the cost of a modular exponentiation is
// essentially (#squarings + #multiplies) * cost(montgomery multiply), i.e.
// roughly linear in the exponent bit-length for a fixed modulus size.
//
// One product-scanning kernel serves every modulus. It works on stack
// arrays (nothing is allocated inside an exponentiation), is compiled for a
// fixed limb count of 8 and 16 (DH-512 and the RSA-1024 CRT halves; DH-1024
// and RSA-1024), and runs every other size with a runtime limb count of up
// to kMaxLimbs. exp() takes one of two paths:
//
//  * secret path: a context built with a secret exponent width runs every
//    exponent of 64 bits up to that width in fixed 4-bit windows over the
//    exponent padded to the width, selects table entries by a masked scan of
//    the whole table, and reduces without branches. Its time depends on the
//    modulus and the declared width only (docs/hardening.md,
//    "Constant-time modular exponentiation").
//  * public path: every other exponent (RSA e=3 verification, BD's small
//    step-3 exponents, Miller-Rabin, DSA verification) runs a sliding window
//    whose width follows the exponent length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bignum/bigint.h"

namespace sgk {

/// Precomputed context for arithmetic modulo a fixed odd modulus.
class MontgomeryCtx {
 public:
  /// Largest modulus, in 64-bit limbs (4096 bits).
  static constexpr std::size_t kMaxLimbs = 64;

  /// Public-exponent context. Requires an odd modulus > 1 of at most
  /// kMaxLimbs limbs; throws std::invalid_argument otherwise.
  explicit MontgomeryCtx(const BigInt& modulus);
  /// Context whose exponents of 64 to `secret_bits` bits are secret and run
  /// the constant-time path. Throws std::invalid_argument as above, or if
  /// `secret_bits` exceeds the modulus width. Inline, so that every
  /// construction passes through the out-of-line one-argument constructor,
  /// where perfbench's trace counts context builds.
  MontgomeryCtx(const BigInt& modulus, std::size_t secret_bits)
      : MontgomeryCtx(modulus) {
    if (secret_bits > n_.bit_length())
      throw std::invalid_argument("MontgomeryCtx: secret width exceeds modulus");
    ct_width_ = secret_bits;
  }

  const BigInt& modulus() const { return n_; }

  /// (a * b) mod n, for a, b already reduced mod n.
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// (base ^ exp) mod n. base need not be reduced.
  BigInt exp(const BigInt& base, const BigInt& exp) const;

 private:
  BigInt n_;
  std::size_t k_ = 0;              // limb count of n_
  std::size_t ct_width_ = 0;       // declared secret width; 0: none
  std::uint64_t n0_inv_ = 0;       // -n^{-1} mod 2^64
  std::vector<std::uint64_t> r2_;  // R^2 mod n, k_ limbs
};

/// Convenience one-shot (base ^ exp) mod modulus. For odd moduli uses
/// Montgomery; for even moduli falls back to square-and-multiply with full
/// reductions (only needed by tests).
BigInt mod_exp(const BigInt& base, const BigInt& exp, const BigInt& modulus);

}  // namespace sgk
