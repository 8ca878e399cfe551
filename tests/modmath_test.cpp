#include "bignum/modmath.h"

#include <gtest/gtest.h>

#include <vector>

#include "bignum/montgomery.h"
#include "bignum/prime.h"
#include "crypto/drbg.h"

namespace sgk {
namespace {

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(gcd(BigInt(), BigInt(5)), BigInt(5));
  EXPECT_EQ(gcd(BigInt(5), BigInt()), BigInt(5));
}

TEST(ModInverse, SmallCases) {
  // 3 * 4 = 12 = 1 mod 11
  EXPECT_EQ(mod_inverse(BigInt(3), BigInt(11)), BigInt(4));
  EXPECT_EQ(mod_inverse(BigInt(1), BigInt(7)), BigInt(1));
  // a > m is reduced first.
  EXPECT_EQ(mod_inverse(BigInt(14), BigInt(11)), BigInt(4));
}

TEST(ModInverse, NotInvertibleThrows) {
  EXPECT_THROW(mod_inverse(BigInt(6), BigInt(9)), std::domain_error);
  EXPECT_THROW(mod_inverse(BigInt(), BigInt(9)), std::domain_error);
}

TEST(ModInverse, RandomInvertibleRoundTrip) {
  Drbg rng(3, "modinv");
  const BigInt m = BigInt::from_hex("d17977a5656e7ef6ea1a65eb9406b483d7b489a3");
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::random_below(m, rng);
    if (a.is_zero()) continue;
    BigInt inv = mod_inverse(a, m);
    EXPECT_EQ(a * inv % m, BigInt(1));
  }
}

TEST(ModInverse, CompositeModulus) {
  // Works for composite m when gcd(a, m) == 1 (needed by RSA keygen).
  const BigInt m = BigInt::from_dec("1000000");
  const BigInt a = BigInt(77);
  BigInt inv = mod_inverse(a, m);
  EXPECT_EQ(a * inv % m, BigInt(1));
}

/// Odd moduli for the safegcd inverse: random ones of every limb count the
/// kernels use, at full width and one bit short; all ones and 2^(64k-1) + 1
/// at each of those limb counts; and widths around the batch boundaries
/// (one batch of 62 division steps covers widths up to 20 bits, and the
/// step bound changes formula at 46 bits).
std::vector<BigInt> inverse_moduli(Drbg& rng) {
  auto odd_of_width = [&rng](std::size_t bits) {
    const BigInt m = BigInt::random_bits(bits, rng);
    return m.is_odd() ? m : m + BigInt(1);
  };
  std::vector<BigInt> ms = {BigInt(3), BigInt(5), BigInt(11)};
  for (std::size_t bits : {20u, 21u, 40u, 45u, 46u, 47u, 62u, 63u, 160u})
    ms.push_back(odd_of_width(bits));
  for (std::size_t limbs : {1u, 2u, 3u, 8u, 9u, 16u, 17u}) {
    const std::size_t bits = 64 * limbs;
    ms.push_back(odd_of_width(bits));
    ms.push_back(odd_of_width(bits - 1));
    ms.push_back((BigInt(1) << bits) - BigInt(1));
    ms.push_back((BigInt(1) << (bits - 1)) + BigInt(1));
  }
  return ms;
}

/// Inputs for an inverse mod m: 1, 2, m - 1, m - 2, powers of two, values at
/// or above m (of m's width, which safegcd takes unreduced, and wider ones,
/// which are reduced first) and random values below m.
std::vector<BigInt> inverse_inputs(const BigInt& m, Drbg& rng) {
  const std::size_t bits = m.bit_length();
  std::vector<BigInt> as = {BigInt(1), BigInt(2), m - BigInt(1), m - BigInt(2),
                            m, m + BigInt(1), m + BigInt(2), m + BigInt(3),
                            (BigInt(1) << bits) - BigInt(1),
                            m * BigInt(7) + BigInt(5), (BigInt(1) << (bits + 64)) + BigInt(3)};
  for (std::size_t j : {1u, 31u, 61u, 62u, 63u, 64u, 65u})
    if (j < bits) as.push_back(BigInt(1) << j);
  as.push_back(BigInt(1) << (bits - 1));
  for (int i = 0; i < 12; ++i) as.push_back(BigInt::random_below(m, rng));
  return as;
}

// The odd-modulus inverse (safegcd) against extended Euclid.
TEST(ModInverse, BinaryMatchesEuclidOnOddModuli) {
  Drbg rng(17, "modinv-safegcd");
  for (const BigInt& m : inverse_moduli(rng)) {
    for (const BigInt& a : inverse_inputs(m, rng)) {
      if (gcd(a % m, m) != BigInt(1)) {
        EXPECT_THROW(mod_inverse(a, m), std::domain_error) << m.to_hex() << " " << a.to_hex();
        EXPECT_THROW(mod_inverse_euclid(a, m), std::domain_error) << a.to_hex();
        continue;
      }
      const BigInt inv = mod_inverse(a, m);
      EXPECT_EQ(inv, mod_inverse_euclid(a, m)) << "m " << m.to_hex() << " a " << a.to_hex();
      EXPECT_LT(inv, m);
      EXPECT_EQ(a * inv % m, BigInt(1));
    }
  }
}

TEST(ModInverse, BinaryEdgeCases) {
  const BigInt p = BigInt::from_hex("d17977a5656e7ef6ea1a65eb9406b483d7b489a3");
  EXPECT_EQ(mod_inverse(BigInt(1), p), BigInt(1));
  EXPECT_EQ(mod_inverse(p - BigInt(1), p), p - BigInt(1));
  EXPECT_EQ(mod_inverse(p + BigInt(1), p), BigInt(1));
  // Non-invertible: zero, multiples of m, and a shared factor.
  const BigInt m = p * BigInt(3);
  EXPECT_THROW(mod_inverse(BigInt(), p), std::domain_error);
  EXPECT_THROW(mod_inverse(p, p), std::domain_error);
  EXPECT_THROW(mod_inverse(p * BigInt(4), p), std::domain_error);
  EXPECT_THROW(mod_inverse(BigInt(6), m), std::domain_error);
  EXPECT_THROW(mod_inverse(p, m), std::domain_error);
  // Shared factors at every limb count: m = r * s with odd r, s, and
  // multiples of r or s; and 3 | m with 3 | a.
  Drbg rng(18, "modinv-shared");
  for (std::size_t limbs : {1u, 2u, 3u, 8u, 9u, 16u, 17u}) {
    BigInt r = BigInt::random_bits(32 * limbs, rng);
    if (!r.is_odd()) r = r + BigInt(1);
    BigInt s = BigInt::random_bits(32 * limbs, rng);
    if (!s.is_odd()) s = s + BigInt(1);
    const BigInt rs = r * s;
    for (const BigInt& a : {BigInt(), rs, rs * BigInt(2), r, s, r * BigInt(2), rs - r,
                            s * BigInt(5)}) {
      EXPECT_THROW(mod_inverse(a, rs), std::domain_error)
          << "m " << rs.to_hex() << " a " << a.to_hex();
    }
    EXPECT_THROW(mod_inverse(BigInt(3) * BigInt::random_below(rs, rng) + BigInt(3),
                             rs * BigInt(3)),
                 std::domain_error);
  }
  // m = 1 and m = 0 are rejected on both paths.
  EXPECT_THROW(mod_inverse(BigInt(1), BigInt(1)), std::domain_error);
  EXPECT_THROW(mod_inverse(BigInt(5), BigInt(1)), std::domain_error);
  EXPECT_THROW(mod_inverse(BigInt(1), BigInt()), std::domain_error);
  // Even moduli run Euclid.
  EXPECT_EQ(mod_inverse(BigInt(3), BigInt(8)), BigInt(3));
}

TEST(ModAddSub, WrapsCorrectly) {
  const BigInt m(100);
  EXPECT_EQ(mod_add(BigInt(70), BigInt(50), m), BigInt(20));
  EXPECT_EQ(mod_add(BigInt(10), BigInt(20), m), BigInt(30));
  EXPECT_EQ(mod_sub(BigInt(10), BigInt(20), m), BigInt(90));
  EXPECT_EQ(mod_sub(BigInt(20), BigInt(10), m), BigInt(10));
}

TEST(CrtCombine, ReconstructsValue) {
  const BigInt p(101), q(103);
  const BigInt x(777);
  BigInt qinv = mod_inverse(q, p);
  BigInt rebuilt = crt_combine(x % p, x % q, p, q, qinv);
  EXPECT_EQ(rebuilt, x);
}

TEST(ModExp, KnownValues) {
  EXPECT_EQ(MontgomeryCtx(BigInt(1001)).exp(BigInt(2), BigInt(10)), BigInt(1024 % 1001));
  EXPECT_EQ(MontgomeryCtx(BigInt(7)).exp(BigInt(5), BigInt(0)), BigInt(1));
  EXPECT_EQ(MontgomeryCtx(BigInt(7)).exp(BigInt(0), BigInt(5)), BigInt(0));
  // Fermat: a^(p-1) = 1 mod p
  EXPECT_EQ(MontgomeryCtx(BigInt(103)).exp(BigInt(2), BigInt(102)), BigInt(1));
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(MontgomeryCtx(BigInt(100)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(BigInt(1)), std::invalid_argument);
}

TEST(Montgomery, MulMatchesSchoolbook) {
  Drbg rng(4, "montmul");
  const BigInt m = BigInt::from_hex(
      "a8cb47671bf5d74c5ba7e3a079165690f7caed445170287bad497b312a4f6773"
      "3a128d309acb6678ab98b09b914d2c077b771265d2ece2b7761e2009b6b114e5");
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(m, rng);
    BigInt b = BigInt::random_below(m, rng);
    EXPECT_EQ(ctx.mul(a, b), a * b % m);
  }
}

class MontExpProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MontExpProperty, MatchesNaiveSquareMultiply) {
  Drbg rng(GetParam(), "montexp");
  BigInt m = BigInt::random_bits(65 + GetParam() * 61, rng);
  if (!m.is_odd()) m = m + BigInt(1);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 6; ++i) {
    BigInt base = BigInt::random_below(m, rng);
    BigInt e = BigInt::random_bits(1 + GetParam() * 13, rng);
    // Naive reference.
    BigInt acc(1);
    for (std::size_t b = e.bit_length(); b-- > 0;) {
      acc = acc * acc % m;
      if (e.bit(b)) acc = acc * base % m;
    }
    EXPECT_EQ(ctx.exp(base, e), acc);
  }
}

TEST_P(MontExpProperty, ExponentAdditivity) {
  // g^(a+b) == g^a * g^b mod m
  Drbg rng(GetParam() + 100, "montexp-add");
  BigInt m = BigInt::random_bits(80 + GetParam() * 47, rng);
  if (!m.is_odd()) m = m + BigInt(1);
  MontgomeryCtx ctx(m);
  BigInt g = BigInt::random_below(m, rng);
  BigInt a = BigInt::random_bits(40, rng);
  BigInt b = BigInt::random_bits(40, rng);
  EXPECT_EQ(ctx.exp(g, a + b), ctx.mul(ctx.exp(g, a), ctx.exp(g, b)));
}

INSTANTIATE_TEST_SUITE_P(Widths, MontExpProperty, ::testing::Range<std::size_t>(1, 9));

TEST(Prime, SmallPrimesRecognized) {
  Drbg rng(5, "prime");
  for (std::uint32_t p : {2u, 3u, 5u, 7u, 97u, 251u, 257u, 65537u})
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  for (std::uint32_t c : {0u, 1u, 4u, 9u, 100u, 255u, 65535u})
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
}

TEST(Prime, CarmichaelRejected) {
  Drbg rng(6, "carmichael");
  // 561, 1105, 1729 are Carmichael numbers (fool Fermat, not Miller-Rabin).
  for (std::uint32_t c : {561u, 1105u, 1729u, 41041u})
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
}

TEST(Prime, KnownLargePrime) {
  Drbg rng(7, "large");
  // 2^127 - 1 is a Mersenne prime.
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  EXPECT_FALSE(is_probable_prime(m127 + BigInt(2), rng));
}

TEST(Prime, GenerateHasExactBits) {
  Drbg rng(8, "gen");
  BigInt p = generate_prime(128, rng);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(is_probable_prime(p, rng));
}

TEST(Prime, SchnorrGroupStructure) {
  Drbg rng(9, "schnorr");
  SchnorrGroup grp = generate_schnorr_group(256, 96, rng);
  EXPECT_EQ(grp.p.bit_length(), 256u);
  EXPECT_EQ(grp.q.bit_length(), 96u);
  EXPECT_EQ((grp.p - BigInt(1)) % grp.q, BigInt(0));
  EXPECT_EQ(MontgomeryCtx(grp.p).exp(grp.g, grp.q), BigInt(1));
  EXPECT_NE(grp.g, BigInt(1));
}

}  // namespace
}  // namespace sgk
