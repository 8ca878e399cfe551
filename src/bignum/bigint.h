// Arbitrary-precision unsigned integers.
//
// BigInt is an immutable-value big natural number with 64-bit limbs stored
// little-endian. It implements exactly the operations the cryptographic layer
// needs: comparison, ring arithmetic, shifts, Knuth division, and byte/hex
// conversions. Modular exponentiation lives in montgomery.h; number-theoretic
// helpers (gcd, inverse, primality) in modmath.h / prime.h.
//
// Subtraction of a larger value from a smaller one throws; the library works
// exclusively with naturals and tracks signs explicitly where needed
// (extended Euclid).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/random_source.h"

namespace sgk {

struct BigIntDivMod;

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a machine word.
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal ergonomics

  /// Parses a (lowercase or uppercase) hex string; empty string is zero.
  static BigInt from_hex(std::string_view hex);
  /// Parses big-endian bytes; empty is zero.
  static BigInt from_bytes(std::span<const std::uint8_t> be);
  /// Parses a decimal string.
  static BigInt from_dec(std::string_view dec);

  /// Uniform value in [0, bound). Requires bound > 0.
  static BigInt random_below(const BigInt& bound, RandomSource& rng);
  /// Random value of exactly `bits` bits (top bit set). Requires bits >= 1.
  static BigInt random_bits(std::size_t bits, RandomSource& rng);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits; 0 for zero.
  std::size_t bit_length() const;
  /// Value of bit `i` (0 = least significant).
  bool bit(std::size_t i) const;
  /// Low 64 bits.
  std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  /// Three-way comparison: -1, 0, +1.
  int compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return compare(o) != 0; }
  bool operator<(const BigInt& o) const { return compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return compare(o) >= 0; }

  BigInt operator+(const BigInt& o) const;
  /// Requires *this >= o; throws std::domain_error otherwise.
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  /// Quotient; throws std::domain_error on division by zero.
  BigInt operator/(const BigInt& o) const;
  /// Remainder; throws std::domain_error on division by zero.
  BigInt operator%(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  using DivMod = BigIntDivMod;
  /// Computes quotient and remainder in one pass (Knuth algorithm D).
  DivMod divmod(const BigInt& divisor) const;

  /// Length of to_bytes(): ceil(bit_length() / 8).
  std::size_t byte_length() const { return (bit_length() + 7) / 8; }
  /// Big-endian bytes, no leading zeros (empty for zero).
  Bytes to_bytes() const;
  /// Big-endian bytes left-padded with zeros to exactly `width` bytes.
  /// Throws std::length_error if the value does not fit.
  Bytes to_bytes_padded(std::size_t width) const;
  /// Writes to_bytes_padded(out.size()) into `out`, with the same throw.
  void write_bytes(std::span<std::uint8_t> out) const;
  /// Lowercase hex, no leading zeros ("0" for zero).
  std::string to_hex() const;
  /// Decimal string.
  std::string to_dec() const;

  /// Access to limbs for the Montgomery engine.
  const std::vector<std::uint64_t>& limbs() const { return limbs_; }
  static BigInt from_limbs(std::vector<std::uint64_t> limbs);

  /// Zeroizes the limb storage (optimizer-proof) and resets the value to
  /// zero. Used by SecureBigInt for secret exponents; harmless on non-secret
  /// values.
  void wipe() noexcept;

 private:
  void normalize();

  // Little-endian, normalized: empty == 0, otherwise limbs_.back() != 0.
  std::vector<std::uint64_t> limbs_;
};

struct BigIntDivMod {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace sgk
