#include "bignum/bigint.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/check.h"
#include "util/secure_bytes.h"

namespace sgk {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;
}  // namespace

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

void BigInt::wipe() noexcept {
  secure_zero(limbs_.data(), limbs_.size() * sizeof(u64));
  limbs_.clear();
  limbs_.shrink_to_fit();
}

BigInt BigInt::from_limbs(std::vector<std::uint64_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.normalize();
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  BigInt out;
  std::size_t nlimbs = (hex.size() + 15) / 16;
  out.limbs_.assign(nlimbs, 0);
  for (std::size_t i = 0; i < hex.size(); ++i) {
    char c = hex[hex.size() - 1 - i];
    u64 v;
    if (c >= '0' && c <= '9') v = static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f') v = static_cast<u64>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v = static_cast<u64>(c - 'A' + 10);
    else throw std::invalid_argument("BigInt::from_hex: invalid digit");
    out.limbs_[i / 16] |= v << (4 * (i % 16));
  }
  out.normalize();
  return out;
}

BigInt BigInt::from_bytes(std::span<const std::uint8_t> be) {
  // be is big-endian: limb i is the eight bytes ending 8 * i bytes before
  // the end, and the leading size % 8 bytes form a short top limb.
  BigInt out;
  const std::size_t n = be.size();
  out.limbs_.resize((n + 7) / 8);
  const std::uint8_t* end = be.data() + n;
  std::size_t i = 0;
  for (; 8 * i + 8 <= n; ++i) {
    const std::uint8_t* p = end - 8 * i - 8;
    u64 v = 0;
    for (std::size_t j = 0; j < 8; ++j) v = v << 8 | p[j];
    out.limbs_[i] = v;
  }
  if (8 * i < n) {
    u64 v = 0;
    for (const std::uint8_t* p = be.data(); p < end - 8 * i; ++p) v = v << 8 | *p;
    out.limbs_[i] = v;
  }
  out.normalize();
  return out;
}

BigInt BigInt::from_dec(std::string_view dec) {
  BigInt out;
  const BigInt ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') throw std::invalid_argument("BigInt::from_dec: invalid digit");
    out = out * ten + BigInt(static_cast<u64>(c - '0'));
  }
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  // std::bit_width rather than a shift loop: the loop's trip count, and so
  // its time, followed the top limb's value, and mod_inverse and the
  // exponentiation paths take the bit length of secret operands.
  return (limbs_.size() - 1) * 64 +
         static_cast<std::size_t>(std::bit_width(limbs_.back()));
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigInt::compare(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size())
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.assign(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(i < limbs_.size() ? limbs_[i] : 0) +
               (i < o.limbs_.size() ? o.limbs_[i] : 0) + carry;
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.normalize();
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (*this < o) throw std::domain_error("BigInt subtraction underflow");
  BigInt out;
  out.limbs_.assign(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 rhs = i < o.limbs_.size() ? o.limbs_[i] : 0;
    u128 diff = static_cast<u128>(limbs_[i]) - rhs - borrow;
    out.limbs_[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>((diff >> 64) & 1);
  }
  out.normalize();
  return out;
}

namespace {
using Limbs = std::vector<std::uint64_t>;

// Schoolbook product of limb spans into a fresh vector of size an+bn.
Limbs mul_schoolbook(const u64* a, std::size_t an, const u64* b, std::size_t bn) {
  Limbs out(an + bn, 0);
  for (std::size_t i = 0; i < an; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < bn; ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + bn] += carry;
  }
  return out;
}

// r[off..] += v, propagating carries.
void add_into(Limbs& r, std::size_t off, const Limbs& v) {
  u64 carry = 0;
  std::size_t i = 0;
  for (; i < v.size(); ++i) {
    u128 sum = static_cast<u128>(r[off + i]) + v[i] + carry;
    r[off + i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  while (carry != 0) {
    u128 sum = static_cast<u128>(r[off + i]) + carry;
    r[off + i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
    ++i;
  }
}

// r[off..] -= v (result known non-negative), propagating borrows.
void sub_from(Limbs& r, std::size_t off, const Limbs& v) {
  u64 borrow = 0;
  std::size_t i = 0;
  for (; i < v.size(); ++i) {
    u128 diff = static_cast<u128>(r[off + i]) - v[i] - borrow;
    r[off + i] = static_cast<u64>(diff);
    borrow = static_cast<u64>((diff >> 64) & 1);
  }
  while (borrow != 0) {
    u128 diff = static_cast<u128>(r[off + i]) - borrow;
    r[off + i] = static_cast<u64>(diff);
    borrow = static_cast<u64>((diff >> 64) & 1);
    ++i;
  }
}

Limbs add_spans(const u64* a, std::size_t an, const u64* b, std::size_t bn) {
  const std::size_t n = std::max(an, bn);
  Limbs out(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(i < an ? a[i] : 0) + (i < bn ? b[i] : 0) + carry;
    out[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out[n] = carry;
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

// Karatsuba pays off once operands exceed a dozen limbs (RSA-1024 keygen,
// 2048-bit intermediates); below that, the cache-friendly schoolbook wins.
constexpr std::size_t kKaratsubaThreshold = 12;

Limbs mul_rec(const u64* a, std::size_t an, const u64* b, std::size_t bn) {
  if (an == 0 || bn == 0) return {};
  if (std::min(an, bn) < kKaratsubaThreshold)
    return mul_schoolbook(a, an, b, bn);

  // Split at half of the larger operand: a = a1*B + a0, b = b1*B + b0.
  const std::size_t half = std::max(an, bn) / 2;
  const std::size_t a0n = std::min(an, half), a1n = an - a0n;
  const std::size_t b0n = std::min(bn, half), b1n = bn - b0n;

  auto trim = [](Limbs& v) {
    while (!v.empty() && v.back() == 0) v.pop_back();
  };
  Limbs z0 = mul_rec(a, a0n, b, b0n);
  Limbs z2 = mul_rec(a + a0n, a1n, b + b0n, b1n);
  Limbs sa = add_spans(a, a0n, a + a0n, a1n);
  Limbs sb = add_spans(b, b0n, b + b0n, b1n);
  Limbs z1 = mul_rec(sa.data(), sa.size(), sb.data(), sb.size());
  // z1 -= z0 + z2 (the middle coefficient). Trim first: the subtraction
  // helpers index by the subtrahend's length, and z1 >= z0 + z2 numerically
  // guarantees trimmed-length dominance but not padded-length dominance.
  trim(z0);
  trim(z2);
  trim(z1);
  sub_from(z1, 0, z0);
  sub_from(z1, 0, z2);
  trim(z1);

  Limbs out(an + bn + 1, 0);
  add_into(out, 0, z0);
  add_into(out, half, z1);
  add_into(out, 2 * half, z2);
  return out;
}
}  // namespace

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt();
  BigInt out;
  out.limbs_ = mul_rec(limbs_.data(), limbs_.size(), o.limbs_.data(), o.limbs_.size());
  out.normalize();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0)
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
  }
  out.normalize();
  return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt division by zero");
  if (*this < divisor) return {BigInt(), *this};
  if (divisor.limbs_.size() == 1) {
    // Single-limb fast path.
    u64 d = divisor.limbs_[0];
    BigInt q;
    q.limbs_.assign(limbs_.size(), 0);
    u64 rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      u128 cur = (static_cast<u128>(rem) << 64) | limbs_[i];
      q.limbs_[i] = static_cast<u64>(cur / d);
      rem = static_cast<u64>(cur % d);
    }
    q.normalize();
    return {q, BigInt(rem)};
  }

  // Knuth algorithm D. Normalize so the divisor's top bit is set.
  const std::size_t shift = 64 - (divisor.bit_length() % 64 == 0
                                      ? 64
                                      : divisor.bit_length() % 64);
  BigInt u = *this << shift;
  BigInt v = divisor << shift;
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;
  // Ensure u has an extra high limb.
  u.limbs_.push_back(0);

  BigInt q;
  q.limbs_.assign(m + 1, 0);
  const u64 vtop = v.limbs_[n - 1];
  const u64 vsecond = v.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    u128 numerator = (static_cast<u128>(u.limbs_[j + n]) << 64) | u.limbs_[j + n - 1];
    u128 qhat = numerator / vtop;
    u128 rhat = numerator % vtop;
    while (qhat >= (static_cast<u128>(1) << 64) ||
           qhat * vsecond > ((rhat << 64) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += vtop;
      if (rhat >= (static_cast<u128>(1) << 64)) break;
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 product = qhat * v.limbs_[i] + carry;
      carry = product >> 64;
      u128 diff = static_cast<u128>(u.limbs_[i + j]) - static_cast<u64>(product) - borrow;
      u.limbs_[i + j] = static_cast<u64>(diff);
      borrow = (diff >> 64) & 1;
    }
    u128 diff = static_cast<u128>(u.limbs_[j + n]) - carry - borrow;
    u.limbs_[j + n] = static_cast<u64>(diff);
    bool negative = ((diff >> 64) & 1) != 0;

    if (negative) {
      // qhat was one too large: add v back.
      --qhat;
      u128 carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u.limbs_[i + j]) + v.limbs_[i] + carry2;
        u.limbs_[i + j] = static_cast<u64>(sum);
        carry2 = sum >> 64;
      }
      u.limbs_[j + n] += static_cast<u64>(carry2);
    }
    q.limbs_[j] = static_cast<u64>(qhat);
  }

  q.normalize();
  u.normalize();
  BigInt r = u >> shift;
  return {q, r};
}

BigInt BigInt::operator/(const BigInt& o) const { return divmod(o).quotient; }
BigInt BigInt::operator%(const BigInt& o) const { return divmod(o).remainder; }

Bytes BigInt::to_bytes() const { return to_bytes_padded(byte_length()); }

Bytes BigInt::to_bytes_padded(std::size_t width) const {
  Bytes out(width);
  write_bytes(out);
  return out;
}

void BigInt::write_bytes(std::span<std::uint8_t> out) const {
  const std::size_t nbytes = byte_length();
  if (nbytes > out.size()) throw std::length_error("BigInt::to_bytes_padded: too wide");
  // Big-endian: byte i (from the least significant) goes to end[-1 - i].
  std::uint8_t* end = out.data() + out.size();
  std::fill(out.data(), end - nbytes, 0);
  std::size_t i = 0;
  for (; 8 * i + 8 <= nbytes; ++i) {
    std::uint8_t* p = end - 8 * i - 8;
    for (std::size_t j = 0; j < 8; ++j)
      p[j] = static_cast<std::uint8_t>(limbs_[i] >> (56 - 8 * j));
  }
  for (std::size_t b = 8 * i; b < nbytes; ++b)
    end[-1 - static_cast<std::ptrdiff_t>(b)] =
        static_cast<std::uint8_t>(limbs_[i] >> (8 * (b - 8 * i)));
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  const std::size_t nibbles = (bit_length() + 3) / 4;
  for (std::size_t i = nibbles; i-- > 0;) {
    unsigned v = static_cast<unsigned>(limbs_[i / 16] >> (4 * (i % 16))) & 0xf;
    out.push_back(digits[v]);
  }
  return out;
}

std::string BigInt::to_dec() const {
  if (is_zero()) return "0";
  std::string out;
  BigInt v = *this;
  const BigInt ten(10);
  while (!v.is_zero()) {
    DivMod dm = v.divmod(ten);
    out.push_back(static_cast<char>('0' + dm.remainder.low_u64()));
    v = dm.quotient;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

BigInt BigInt::random_bits(std::size_t bits, RandomSource& rng) {
  SGK_CHECK(bits >= 1);
  const std::size_t nbytes = (bits + 7) / 8;
  Bytes buf(nbytes);
  rng.fill(buf.data(), buf.size());
  // Clear excess high bits, then force the top bit so the size is exact.
  const std::size_t excess = nbytes * 8 - bits;
  buf[0] &= static_cast<std::uint8_t>(0xff >> excess);
  buf[0] |= static_cast<std::uint8_t>(0x80 >> excess);
  return from_bytes(buf);
}

BigInt BigInt::random_below(const BigInt& bound, RandomSource& rng) {
  SGK_CHECK(!bound.is_zero());
  const std::size_t bits = bound.bit_length();
  const std::size_t nbytes = (bits + 7) / 8;
  const std::size_t excess = nbytes * 8 - bits;
  // Rejection sampling keeps the distribution uniform.
  for (;;) {
    Bytes buf(nbytes);
    rng.fill(buf.data(), buf.size());
    buf[0] &= static_cast<std::uint8_t>(0xff >> excess);
    BigInt candidate = from_bytes(buf);
    if (candidate < bound) return candidate;
  }
}

}  // namespace sgk
