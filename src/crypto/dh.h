// Diffie–Hellman over Schnorr groups (p with a 160-bit prime-order
// subgroup), matching the parameter shape used in the paper: 512- and
// 1024-bit p with 160-bit q and 160-bit exponents.
#pragma once

#include <cstddef>
#include <memory>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "bignum/secure_bigint.h"
#include "util/random_source.h"

namespace sgk {

/// Modulus sizes the paper evaluates.
enum class DhBits { k512, k1024 };

/// A fixed, precomputed DH group (p, q, g) with Montgomery contexts for p.
/// Exponents of up to |q| bits are secret: exp() and exp_g() run them on
/// the constant-time path, and g^x (exp_g(), or exp() with base g) on its
/// fixed-base comb, whose table is built on the first such call. Instances
/// are immutable and shared; obtain them via dh_group().
class DhGroup {
 public:
  DhGroup(BigInt p, BigInt q, BigInt g);

  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }
  const BigInt& g() const { return g_; }
  std::size_t p_bits() const { return p_.bit_length(); }

  /// (base ^ exp) mod p via the precomputed Montgomery context.
  BigInt exp(const BigInt& base, const BigInt& e) const;
  /// g ^ e mod p.
  BigInt exp_g(const BigInt& e) const;
  /// (base ^ e) mod p for a public exponent (DSA verification).
  BigInt exp_public(const BigInt& base, const BigInt& e) const;
  /// (a * b) mod p by MontgomeryCtx::mul, which does not branch on the
  /// values of operands below 2^|p| (BD folds secret values into its key
  /// with it).
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// a^{-1} mod q by mod_inverse's constant-time safegcd, for secret a below
  /// 2^|q| (GDH factor-out, CKD unwrap, the DSA nonce). Throws
  /// std::domain_error if a = 0 (mod q), the only non-invertible case for
  /// prime q.
  BigInt inverse_q(const BigInt& a) const;

  /// Random secret exponent in [1, q). Returned in zeroizing storage; store
  /// it in a SecureBigInt (or read it once and let the temporary wipe).
  SecureBigInt random_exponent(RandomSource& rng) const;

  /// Reduces an arbitrary group element / integer into a usable exponent in
  /// [1, q). Used by the tree protocols where a node secret feeds the next
  /// level's exponentiation.
  BigInt to_exponent(const BigInt& value) const;

 private:
  BigInt p_;
  BigInt q_;
  BigInt g_;
  MontgomeryCtx ctx_;         // p, secret exponents of up to |q| bits, base g
  MontgomeryCtx public_ctx_;  // p, public exponents
};

/// Shared fixed groups (generated once with this library's own
/// generate_schnorr_group; see tools/ for provenance).
const DhGroup& dh_group(DhBits bits);

}  // namespace sgk
