#include "bignum/modmath.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/secure_bytes.h"

namespace sgk {

namespace {
using u64 = std::uint64_t;
using i64 = std::int64_t;
using i128 = __int128;

// Bernstein-Yang safegcd ("Fast constant-time gcd computation and modular
// inversion", TCHES 2019), in the shape of libsecp256k1's modinv64 with the
// limb count as a parameter. Values are signed integers in 62-bit limbs:
// every limb but the top one is in [0, 2^62), and the top one carries the
// sign. Each batch runs kBatch division steps on the low words of f and g
// alone, collects them in a 2x2 transition matrix, and then applies the
// matrix to the full-width f, g and to the coefficients d, e.
constexpr std::size_t kBatch = 62;
constexpr u64 kMask62 = (u64{1} << 62) - 1;

// Division steps that take (f, g) = (m, a) to g = 0 and f = +-gcd(m, a)
// for odd m of `bits` bits and 0 <= a < 2^bits: Theorem 11.2 of the paper
// with d = bits, since m^2 + 4a^2 < 5 * 2^(2 bits).
std::size_t divsteps_needed(std::size_t bits) {
  return bits < 46 ? (49 * bits + 80) / 17 : (49 * bits + 57) / 17;
}

// After a batch from (f, g): 2^62 * (f', g') = (u f + v g, q f + r g).
// |u| + |v| <= 2^62 and |q| + |r| <= 2^62.
struct Transition {
  i64 u, v, q, r;
};

// kBatch division steps from (delta, f, g), f odd, on the low words only
// (step i reads bit 0 of g, which depends on the low i + 1 bits of the
// inputs). Each step is, without a branch:
//   delta > 0 and g odd: (delta, f, g) = (1 - delta, g, (g - f) / 2)
//   g odd:               (delta, f, g) = (1 + delta, f, (g + f) / 2)
//   g even:              (delta, f, g) = (1 + delta, f, g / 2)
// Returns the new delta.
i64 divsteps(i64 delta, u64 f, u64 g, Transition& t) {
  u64 u = 1;
  u64 v = 0;
  u64 q = 0;
  u64 r = 1;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const u64 c1 = static_cast<u64>((0 - delta) >> 63);  // all ones iff delta > 0
    const u64 c2 = 0 - (g & 1);                          // all ones iff g is odd
    // g -= f if delta > 0, else g += f; (q, r) the same with (u, v).
    g += ((f ^ c1) - c1) & c2;
    q += ((u ^ c1) - c1) & c2;
    r += ((v ^ c1) - c1) & c2;
    // On a swap, (f, u, v) += the new (g, q, r): the old (g, q, r).
    const u64 swap = c1 & c2;
    f += g & swap;
    u += q & swap;
    v += r & swap;
    delta = (delta ^ static_cast<i64>(swap)) - static_cast<i64>(swap) + 1;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = {static_cast<i64>(u), static_cast<i64>(v), static_cast<i64>(q),
       static_cast<i64>(r)};
  return delta;
}

// (f, g) = (u f + v g, q f + r g) / 2^62, exactly, on n limbs.
void update_fg(i64* f, i64* g, std::size_t n, const Transition& t) {
  i128 cf = static_cast<i128>(t.u) * f[0] + static_cast<i128>(t.v) * g[0];
  i128 cg = static_cast<i128>(t.q) * f[0] + static_cast<i128>(t.r) * g[0];
  cf >>= 62;
  cg >>= 62;
  for (std::size_t i = 1; i < n; ++i) {
    cf += static_cast<i128>(t.u) * f[i] + static_cast<i128>(t.v) * g[i];
    cg += static_cast<i128>(t.q) * f[i] + static_cast<i128>(t.r) * g[i];
    f[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kMask62);
    g[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kMask62);
    cf >>= 62;
    cg >>= 62;
  }
  f[n - 1] = static_cast<i64>(cf);
  g[n - 1] = static_cast<i64>(cg);
}

// (d, e) = (u d + v e, q d + r e) / 2^62 mod m, for d, e in (-2m, m); the
// results stay in (-2m, m). A multiple md * m (me * m) is added so that the
// low 62 bits vanish, after first adding m * (u, q) if d < 0 and
// m * (v, r) if e < 0. m_inv62 = m^{-1} mod 2^62.
void update_de(i64* d, i64* e, const i64* m, u64 m_inv62, std::size_t n,
               const Transition& t) {
  const i64 sd = d[n - 1] >> 63;
  const i64 se = e[n - 1] >> 63;
  i64 md = (t.u & sd) + (t.v & se);
  i64 me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d[0] + static_cast<i128>(t.v) * e[0];
  i128 ce = static_cast<i128>(t.q) * d[0] + static_cast<i128>(t.r) * e[0];
  md -= static_cast<i64>((m_inv62 * static_cast<u64>(cd) + static_cast<u64>(md)) & kMask62);
  me -= static_cast<i64>((m_inv62 * static_cast<u64>(ce) + static_cast<u64>(me)) & kMask62);
  cd += static_cast<i128>(m[0]) * md;
  ce += static_cast<i128>(m[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (std::size_t i = 1; i < n; ++i) {
    cd += static_cast<i128>(t.u) * d[i] + static_cast<i128>(t.v) * e[i] +
          static_cast<i128>(m[i]) * md;
    ce += static_cast<i128>(t.q) * d[i] + static_cast<i128>(t.r) * e[i] +
          static_cast<i128>(m[i]) * me;
    d[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kMask62);
    e[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kMask62);
    cd >>= 62;
    ce >>= 62;
  }
  d[n - 1] = static_cast<i64>(cd);
  e[n - 1] = static_cast<i64>(ce);
}

// Moves each limb's carry into the next, so every limb but the top one is
// in [0, 2^62) again.
void carry(i64* x, std::size_t n) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    x[i + 1] += x[i] >> 62;
    x[i] = static_cast<i64>(static_cast<u64>(x[i]) & kMask62);
  }
}

// x += m if x < 0.
void add_if_negative(i64* x, const i64* m, std::size_t n) {
  const i64 neg = x[n - 1] >> 63;
  for (std::size_t i = 0; i < n; ++i) x[i] += m[i] & neg;
  carry(x, n);
}

// x = -x if `mask` is all ones, x if it is zero.
void negate_if(i64* x, i64 mask, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = (x[i] ^ mask) - mask;
  carry(x, n);
}

// Limbs [62i, 62i + 62) of the k-limb x into n signed limbs (x >= 0).
void to_s62(i64* out, std::size_t n, const u64* x, std::size_t k) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = 62 * i / 64;
    const std::size_t s = 62 * i % 64;
    u64 v = w < k ? x[w] >> s : 0;
    if (s > 2 && w + 1 < k) v |= x[w + 1] << (64 - s);
    out[i] = static_cast<i64>(v & kMask62);
  }
}

// The k-limb value of n signed limbs holding a value in [0, 2^(64k)). Bit
// 64j starts at an even offset s <= 60 of limb 64j / 62, so two limbs
// cover each word.
void from_s62(u64* out, std::size_t k, const i64* x, std::size_t n) {
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t i = 64 * j / 62;
    const std::size_t s = 64 * j % 62;
    u64 v = static_cast<u64>(x[i]) >> s;
    if (i + 1 < n) v |= static_cast<u64>(x[i + 1]) << (62 - s);
    out[j] = v;
  }
}

// a^{-1} mod m for odd m > 1 and 0 <= a < 2^bits(m). The sequence of
// operations depends on the limb count and bit length of m only; the batch
// count is ceil(divsteps_needed(bits(m)) / kBatch).
BigInt safegcd_inverse(const BigInt& a, const BigInt& m) {
  const auto& ml = m.limbs();
  const std::size_t k = ml.size();
  const std::size_t n = 64 * k / 62 + 1;  // the top limb holds < 62 bits of m
  std::vector<i64> buf(5 * n, 0);
  i64* f = buf.data();
  i64* g = f + n;
  i64* d = g + n;
  i64* e = d + n;
  i64* mod = e + n;
  to_s62(mod, n, ml.data(), k);
  std::copy(mod, mod + n, f);
  to_s62(g, n, a.limbs().data(), a.limbs().size());
  e[0] = 1;
  // Invariants: f = d * a and g = e * a (mod m).
  u64 inv = ml[0];  // m^{-1} mod 2^64 by Newton iteration, correct to 3 bits
  for (int i = 0; i < 5; ++i) inv *= 2 - ml[0] * inv;
  const u64 m_inv62 = inv & kMask62;

  const std::size_t batches = (divsteps_needed(m.bit_length()) + kBatch - 1) / kBatch;
  i64 delta = 1;
  for (std::size_t b = 0; b < batches; ++b) {
    Transition t;
    delta = divsteps(delta, static_cast<u64>(f[0]), static_cast<u64>(g[0]), t);
    update_fg(f, g, n, t);
    update_de(d, e, mod, m_inv62, n, t);
  }

  // Now g = 0 and f = +-gcd(m, a), so a is invertible iff |f| = 1, and
  // then a^{-1} = sign(f) * d. f and d are brought to |f| and to
  // sign(f) * d mod m in [0, m) by masks, without a branch on the sign.
  const i64 sign = f[n - 1] >> 63;
  negate_if(f, sign, n);
  u64 diff = static_cast<u64>(f[0]) ^ 1;
  for (std::size_t i = 1; i < n; ++i) diff |= static_cast<u64>(f[i]);
  add_if_negative(d, mod, n);  // (-m, m)
  negate_if(d, sign, n);
  add_if_negative(d, mod, n);  // [0, m)
  std::vector<u64> out(k);
  from_s62(out.data(), k, d, n);
  secure_zero(buf.data(), buf.size() * sizeof(i64));
  if (diff != 0) throw std::domain_error("mod_inverse: not invertible");
  return BigInt::from_limbs(std::move(out));
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
  // safegcd takes any a below 2^bits(m), so an a of m's width (an RSA
  // prime q mod p) is not reduced first.
  BigInt reduced;
  const BigInt& r = a.bit_length() <= m.bit_length() ? a : (reduced = a % m);
  if (r.is_zero()) throw std::domain_error("mod_inverse: not invertible");
  return safegcd_inverse(r, m);
}

// Even moduli (RSA key generation's phi, and tests) keep Euclid: safegcd
// divides by 2^62 modulo m, which needs m odd.
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
