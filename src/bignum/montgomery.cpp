#include "bignum/montgomery.h"

#include <algorithm>
#include <stdexcept>

#include "util/secure_bytes.h"

namespace sgk {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr std::size_t kMaxLimbs = MontgomeryCtx::kMaxLimbs;
// Secret-path window width. Its 16-entry table is also the largest
// sliding-window table (odd powers for 5-bit windows).
constexpr std::size_t kFixedWindow = 4;
constexpr std::size_t kTableSize = std::size_t{1} << kFixedWindow;

// -n^{-1} mod 2^64 by Newton iteration (n odd).
u64 neg_inv64(u64 n) {
  u64 inv = n;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) inv *= 2 - n * inv;
  return ~inv + 1;  // -(n^{-1})
}

// v mod n, without a copy when v is already reduced.
const BigInt& reduced(const BigInt& v, const BigInt& n, BigInt& scratch) {
  if (v < n) return v;
  scratch = v % n;
  return scratch;
}

// Sliding-window width for a public exponent of `bits` bits (OpenSSL's
// BN_window_bits_for_exponent_size, capped at 5).
std::size_t sliding_width(std::size_t bits) {
  if (bits > 239) return 5;
  if (bits > 79) return 4;
  if (bits > 23) return 3;
  return 1;
}

// All ones if a == b, else zero, without a branch.
u64 eq_mask(u64 a, u64 b) {
  const u64 x = a ^ b;
  return ((x | (0 - x)) >> 63) - 1;
}

// Three-word column accumulator (top : low) of the product-scanning
// multiply. A column sums at most 2 * kMaxLimbs + 1 products, so it never
// exceeds 2^136.
struct Accumulator {
  u128 low = 0;
  u64 top = 0;

  // += a * b: one add-with-carry chain, no branch.
  void mac(u64 a, u64 b) {
    top += __builtin_add_overflow(low, static_cast<u128>(a) * b, &low);
  }

  u64 word0() const { return static_cast<u64>(low); }

  // Returns the lowest word and shifts the accumulator down one word.
  u64 shift() {
    const u64 out = word0();
    low = low >> 64 | static_cast<u128>(top) << 64;
    top = 0;
    return out;
  }
};

struct Modulus {
  const u64* n;
  const u64* r2;  // R^2 mod n
  u64 n0_inv;
  std::size_t k;
};

// The kernel, written once over the limb count. K = 8 and K = 16 compile
// with a constant limb count; K = 0 reads it from the modulus at run time and
// sizes its stack arrays for kMaxLimbs. Values are fully reduced (< n) limb
// arrays of k limbs; Montgomery form is v * R mod n with R = 2^(64k).
template <std::size_t K>
class Kernel {
 public:
  static constexpr std::size_t kCap = K != 0 ? K : kMaxLimbs;
  using Limbs = u64[kCap];
  static constexpr Limbs kOne = {1};

  explicit Kernel(const Modulus& mod) : mod_(mod) {}

  std::size_t limbs() const { return K != 0 ? K : mod_.k; }

  /// (base ^ e) mod n for base < n and e > 0. `width` != 0 selects the
  /// secret path with e padded to `width` bits (e < 2^width).
  BigInt exp(const BigInt& base, const BigInt& e, std::size_t width) const {
    Limbs b;
    Limbs acc;
    load(b, base);
    mul(b, b, mod_.r2);
    if (width != 0)
      fixed_window(acc, b, e, width);
    else
      sliding_window(acc, b, e);
    mul(acc, acc, kOne);
    return to_bigint(acc);
  }

  /// (a * b) mod n for a, b < n: REDC(REDC(a * b) * R^2).
  BigInt product(const BigInt& a, const BigInt& b) const {
    Limbs x;
    Limbs y;
    load(x, a);
    load(y, b);
    mul(x, x, y);
    mul(x, x, mod_.r2);
    return to_bigint(x);
  }

 private:
  // out = a * b / R mod n for a, b < n. Product scanning: column i of
  // a * b and of m * n go through one three-word accumulator, and the
  // reduction word m[i] is chosen as column i completes. out may alias a
  // or b.
  void mul(u64* out, const u64* a, const u64* b) const {
    const std::size_t k = limbs();
    const u64* n = mod_.n;
    Limbs m;
    Limbs t;
    Accumulator acc;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        acc.mac(a[j], b[i - j]);
        acc.mac(m[j], n[i - j]);
      }
      acc.mac(a[i], b[0]);
      m[i] = acc.word0() * mod_.n0_inv;
      acc.mac(m[i], n[0]);  // clears the low word
      acc.shift();
    }
    for (std::size_t i = k; i < 2 * k; ++i) {
      for (std::size_t j = i - k + 1; j < k; ++j) {
        acc.mac(a[j], b[i - j]);
        acc.mac(m[j], n[i - j]);
      }
      t[i - k] = acc.shift();
    }
    final_sub(out, t, acc.word0());
  }

  // out = (carry : t) mod n for (carry : t) < 2n: subtracts n and keeps t
  // only if that borrows, by a masked select.
  void final_sub(u64* out, const u64* t, u64 carry) const {
    const std::size_t k = limbs();
    const u64* n = mod_.n;
    Limbs d;
    u64 borrow = 0;
    for (std::size_t j = 0; j < k; ++j) {
      u64 diff;
      const bool b1 = __builtin_sub_overflow(t[j], n[j], &diff);
      const bool b2 = __builtin_sub_overflow(diff, borrow, &diff);
      d[j] = diff;
      borrow = static_cast<u64>(b1 || b2);
    }
    const u64 keep = 0 - (borrow & (carry ^ 1));
    for (std::size_t j = 0; j < k; ++j) out[j] = (t[j] & keep) | (d[j] & ~keep);
  }

  // Secret path: e padded to `width` bits, fixed 4-bit windows, one masked
  // scan of the whole table per window and a multiply for every window.
  void fixed_window(u64* acc, const u64* b, const BigInt& e,
                    std::size_t width) const {
    u64 table[kTableSize][kCap];  // b^0 .. b^15
    mul(table[0], mod_.r2, kOne);  // R mod n
    copy(table[1], b);
    for (std::size_t i = 2; i < kTableSize; ++i) mul(table[i], table[i - 1], b);

    u64 ebuf[kMaxLimbs] = {};
    const auto& el = e.limbs();
    std::copy(el.begin(), el.end(), ebuf);
    const std::size_t windows = (width + kFixedWindow - 1) / kFixedWindow;
    select(acc, table, window(ebuf, windows - 1));
    Limbs entry;
    for (std::size_t w = windows - 1; w-- > 0;) {
      for (std::size_t s = 0; s < kFixedWindow; ++s) mul(acc, acc, acc);
      select(entry, table, window(ebuf, w));
      mul(acc, acc, entry);
    }
    secure_zero(ebuf, sizeof ebuf);
  }

  // Public path: sliding windows over the odd powers b, b^3, ...
  void sliding_window(u64* acc, const u64* b, const BigInt& e) const {
    const auto& el = e.limbs();
    auto bit = [&el](std::size_t i) { return (el[i / 64] >> (i % 64)) & 1; };
    const std::size_t ebits = e.bit_length();
    const std::size_t width = sliding_width(ebits);

    u64 table[kTableSize][kCap];
    copy(table[0], b);
    if (width > 1) {
      Limbs sq;
      mul(sq, b, b);
      for (std::size_t i = 1; i < (std::size_t{1} << (width - 1)); ++i)
        mul(table[i], table[i - 1], sq);
    }

    bool first = true;  // the top bit is set, so the first window starts at once
    for (std::size_t i = ebits; i > 0;) {
      if (bit(i - 1) == 0) {
        mul(acc, acc, acc);
        --i;
        continue;
      }
      // Largest window [i-1 .. i-len] ending on a set bit.
      std::size_t len = std::min(width, i);
      while (bit(i - len) == 0) --len;
      u64 value = 0;
      for (std::size_t j = 0; j < len; ++j) value = value << 1 | bit(i - 1 - j);
      if (first) {
        copy(acc, table[value >> 1]);
        first = false;
      } else {
        for (std::size_t s = 0; s < len; ++s) mul(acc, acc, acc);
        mul(acc, acc, table[value >> 1]);
      }
      i -= len;
    }
  }

  static u64 window(const u64* e, std::size_t w) {
    const std::size_t bit = w * kFixedWindow;
    return (e[bit / 64] >> (bit % 64)) & (kTableSize - 1);
  }

  // out = table[index], reading every entry.
  void select(u64* out, const u64 (*table)[kCap], u64 index) const {
    const std::size_t k = limbs();
    for (std::size_t j = 0; j < k; ++j) out[j] = 0;
    for (std::size_t i = 0; i < kTableSize; ++i) {
      const u64 mask = eq_mask(i, index);
      for (std::size_t j = 0; j < k; ++j) out[j] |= table[i][j] & mask;
    }
  }

  void copy(u64* out, const u64* in) const { std::copy(in, in + limbs(), out); }

  void load(u64* out, const BigInt& v) const {
    const auto& vl = v.limbs();
    std::copy(vl.begin(), vl.end(), out);
    std::fill(out + vl.size(), out + limbs(), 0);
  }

  BigInt to_bigint(const u64* v) const {
    return BigInt::from_limbs(std::vector<u64>(v, v + limbs()));
  }

  const Modulus& mod_;
};

template <typename F>
BigInt with_kernel(const Modulus& mod, F&& f) {
  switch (mod.k) {
    case 8:
      return f(Kernel<8>(mod));
    case 16:
      return f(Kernel<16>(mod));
    default:
      return f(Kernel<0>(mod));
  }
}
}  // namespace

MontgomeryCtx::MontgomeryCtx(const BigInt& modulus) : n_(modulus) {
  if (!modulus.is_odd() || modulus <= BigInt(1))
    throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 1");
  k_ = n_.limbs().size();
  if (k_ > kMaxLimbs)
    throw std::invalid_argument("MontgomeryCtx: modulus exceeds kMaxLimbs");
  n0_inv_ = neg_inv64(n_.limbs()[0]);
  r2_ = ((BigInt(1) << (128 * k_)) % n_).limbs();
  r2_.resize(k_, 0);
}

BigInt MontgomeryCtx::mul(const BigInt& a, const BigInt& b) const {
  BigInt sa;
  BigInt sb;
  const BigInt& x = reduced(a, n_, sa);
  const BigInt& y = reduced(b, n_, sb);
  const Modulus mod{n_.limbs().data(), r2_.data(), n0_inv_, k_};
  return with_kernel(mod, [&](const auto& kernel) { return kernel.product(x, y); });
}

BigInt MontgomeryCtx::exp(const BigInt& base, const BigInt& exponent) const {
  if (exponent.is_zero()) return BigInt(1);
  const std::size_t ebits = exponent.bit_length();
  const std::size_t width =
      ebits >= 64 && ebits <= ct_width_ ? ct_width_ : 0;
  BigInt scratch;
  const BigInt& b = reduced(base, n_, scratch);
  const Modulus mod{n_.limbs().data(), r2_.data(), n0_inv_, k_};
  return with_kernel(mod, [&](const auto& kernel) {
    return kernel.exp(b, exponent, width);
  });
}

BigInt mod_exp(const BigInt& base, const BigInt& exp, const BigInt& modulus) {
  if (modulus.is_zero()) throw std::domain_error("mod_exp: zero modulus");
  if (modulus == BigInt(1)) return BigInt();
  if (modulus.is_odd()) return MontgomeryCtx(modulus).exp(base, exp);
  // Plain square-and-multiply fallback for even moduli.
  BigInt acc(1);
  BigInt b = base % modulus;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = acc * acc % modulus;
    if (exp.bit(i)) acc = acc * b % modulus;
  }
  return acc;
}

}  // namespace sgk
