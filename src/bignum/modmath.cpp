#include "bignum/modmath.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sgk {

namespace {
using u64 = std::uint64_t;

// Fixed-length little-endian limb arrays of k limbs.
bool is_zero(const u64* x, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i)
    if (x[i] != 0) return false;
  return true;
}

bool geq(const u64* x, const u64* y, std::size_t k) {
  for (std::size_t i = k; i-- > 0;)
    if (x[i] != y[i]) return x[i] > y[i];
  return true;
}

// x -= y; returns the borrow.
u64 sub(u64* x, const u64* y, std::size_t k) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    u64 d;
    const bool b1 = __builtin_sub_overflow(x[i], y[i], &d);
    const bool b2 = __builtin_sub_overflow(d, borrow, &x[i]);
    borrow = static_cast<u64>(b1 || b2);
  }
  return borrow;
}

// x += y; returns the carry.
u64 add(u64* x, const u64* y, std::size_t k) {
  u64 carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    u64 s;
    const bool c1 = __builtin_add_overflow(x[i], y[i], &s);
    const bool c2 = __builtin_add_overflow(s, carry, &x[i]);
    carry = static_cast<u64>(c1 || c2);
  }
  return carry;
}

// x = (top : x) >> 1 for a top bit `top`.
void shift_right(u64* x, std::size_t k, u64 top) {
  for (std::size_t i = 0; i + 1 < k; ++i) x[i] = x[i] >> 1 | x[i + 1] << 63;
  x[k - 1] = x[k - 1] >> 1 | top << 63;
}

// x = x / 2 mod m for x < m, m odd: (x + m) / 2 when x is odd.
void halve_mod(u64* x, const u64* m, std::size_t k) {
  const u64 top = (x[0] & 1) != 0 ? add(x, m, k) : 0;
  shift_right(x, k, top);
}

// Strips the factors of 2 from u (non-zero), halving x mod m for each.
void strip_twos(u64* u, u64* x, const u64* m, std::size_t k) {
  while ((u[0] & 1) == 0) {
    shift_right(u, k, 0);
    halve_mod(x, m, k);
  }
}

// a^{-1} mod m for odd m > 1 and 0 < a < m, by binary extended GCD.
// Invariants: u = x1 * a and v = x2 * a (mod m), with x1, x2 in [0, m).
// Each step halves or subtracts in place; the only allocation is the limb
// buffer up front.
BigInt binary_inverse(const BigInt& a, const BigInt& m) {
  const auto& ml = m.limbs();
  const std::size_t k = ml.size();
  std::vector<u64> buf(4 * k, 0);
  u64* u = buf.data();
  u64* v = u + k;
  u64* x1 = v + k;
  u64* x2 = x1 + k;
  const u64* n = ml.data();
  std::copy(a.limbs().begin(), a.limbs().end(), u);
  std::copy(ml.begin(), ml.end(), v);
  x1[0] = 1;
  while (!is_zero(u, k)) {
    strip_twos(u, x1, n, k);
    strip_twos(v, x2, n, k);
    if (geq(u, v, k)) {
      sub(u, v, k);
      if (sub(x1, x2, k) != 0) add(x1, n, k);
    } else {
      sub(v, u, k);
      if (sub(x2, x1, k) != 0) add(x2, n, k);
    }
  }
  // v = gcd(a, m).
  if (v[0] != 1 || !is_zero(v + 1, k - 1))
    throw std::domain_error("mod_inverse: not invertible");
  return BigInt::from_limbs(std::vector<u64>(x2, x2 + k));
}
}  // namespace

BigInt gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a;
  BigInt y = b;
  while (!y.is_zero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  if (!m.is_odd()) return mod_inverse_euclid(a, m);  // also rejects m = 0
  if (m == BigInt(1)) throw std::domain_error("mod_inverse: modulus must be > 1");
  BigInt reduced;
  const BigInt& r = a < m ? a : (reduced = a % m);
  if (r.is_zero()) throw std::domain_error("mod_inverse: not invertible");
  return binary_inverse(r, m);
}

// Even moduli (RSA key generation's phi, and tests) keep Euclid: the binary
// method needs an odd modulus to halve by.
BigInt mod_inverse_euclid(const BigInt& a, const BigInt& m) {
  if (m <= BigInt(1)) throw std::domain_error("mod_inverse: modulus must be > 1");
  // Extended Euclid tracking only the coefficient of a, as a signed value
  // represented by (magnitude, negative) to stay within natural arithmetic.
  BigInt r0 = a % m;
  BigInt r1 = m;
  BigInt t0(1);
  bool t0_neg = false;
  BigInt t1;
  bool t1_neg = false;

  // Invariant: r0 = t0 * a (mod m), r1 = t1 * a (mod m).
  while (!r1.is_zero()) {
    BigInt::DivMod dm = r0.divmod(r1);
    // (t0, t1) <- (t1, t0 - q * t1)
    BigInt qt = dm.quotient * t1;
    BigInt nt;
    bool nt_neg;
    if (t0_neg == t1_neg) {
      // t0 - q*t1 where both share sign s: s*(|t0| - q|t1|)
      if (t0 >= qt) {
        nt = t0 - qt;
        nt_neg = t0_neg;
      } else {
        nt = qt - t0;
        nt_neg = !t0_neg;
      }
    } else {
      // Opposite signs: |t0| + q|t1| with t0's sign.
      nt = t0 + qt;
      nt_neg = t0_neg;
    }
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(nt);
    t1_neg = nt_neg;
    r0 = std::move(r1);
    r1 = std::move(dm.remainder);
  }
  if (r0 != BigInt(1)) throw std::domain_error("mod_inverse: not invertible");
  BigInt inv = t0 % m;
  if (t0_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return a * b % m;
}

BigInt mod_add(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt s = a + b;
  if (s >= m) s = s - m;
  return s;
}

BigInt mod_sub(const BigInt& a, const BigInt& b, const BigInt& m) {
  if (a >= b) return a - b;
  return m - (b - a);
}

BigInt crt_combine(const BigInt& xp, const BigInt& xq, const BigInt& p,
                   const BigInt& q, const BigInt& qinv) {
  // x = xq + q * ((xp - xq) * qinv mod p)
  BigInt diff = mod_sub(xp % p, xq % p, p);
  BigInt h = diff * qinv % p;
  return xq + q * h;
}

}  // namespace sgk
