// Number-theoretic helpers built on BigInt.
#pragma once

#include "bignum/bigint.h"

namespace sgk {

/// Greatest common divisor (Euclid).
BigInt gcd(const BigInt& a, const BigInt& b);

/// Multiplicative inverse of a modulo m (m > 1). Throws std::domain_error if
/// gcd(a, m) != 1. Odd moduli run Bernstein-Yang safegcd: batches of 62
/// branch-free division steps on 64-bit words, each batch's 2x2 transition
/// matrix then applied to the full-width values, in 62-bit signed limbs.
/// The batch count depends on the bit length of m only, and the operation
/// sequence on that and m's limb count, so an a below 2^bits(m) leaves
/// nothing else visible; a wider a is first reduced by BigInt division,
/// which is variable-time. Even moduli run mod_inverse_euclid, which is
/// variable-time.
BigInt mod_inverse(const BigInt& a, const BigInt& m);

/// The same inverse by extended Euclid on BigInt, for any modulus > 1. The
/// even-modulus path of mod_inverse, and the tests' reference.
BigInt mod_inverse_euclid(const BigInt& a, const BigInt& m);

/// (a + b) mod m, with a, b already reduced.
BigInt mod_add(const BigInt& a, const BigInt& b, const BigInt& m);

/// (a - b) mod m, with a, b already reduced.
BigInt mod_sub(const BigInt& a, const BigInt& b, const BigInt& m);

/// Chinese-remainder combination: the unique x mod (p*q) with x = xp (mod p)
/// and x = xq (mod q), given qinv = q^{-1} mod p. Used by RSA-CRT.
BigInt crt_combine(const BigInt& xp, const BigInt& xq, const BigInt& p,
                   const BigInt& q, const BigInt& qinv);

}  // namespace sgk
