// Differential oracle for the Montgomery kernel: every exponentiation,
// product, RSA-CRT signature and Fermat inverse is checked against plain
// square-and-multiply (or extended Euclid) over BigInt's schoolbook
// multiply and Knuth division, on DRBG-seeded and edge inputs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "bignum/prime.h"
#include "core/crypto_context.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"

namespace sgk {
namespace {

BigInt oracle_exp(const BigInt& base, const BigInt& e, const BigInt& n) {
  const BigInt b = base % n;
  BigInt acc(1);
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = acc * acc % n;
    if (e.bit(i)) acc = acc * b % n;
  }
  return acc % n;
}

BigInt all_ones(std::size_t bits) { return (BigInt(1) << bits) - BigInt(1); }

/// Odd modulus of exactly 64 * limbs bits.
BigInt random_modulus(std::size_t limbs, Drbg& rng) {
  BigInt m = BigInt::random_bits(64 * limbs, rng);
  return m.is_odd() ? m : m + BigInt(1);
}

/// Secret widths exercised at a limb count: the full modulus width, and
/// |q| = 160 bits where the modulus is wider.
std::vector<std::size_t> secret_widths(std::size_t limbs) {
  std::vector<std::size_t> widths{64 * limbs};
  if (64 * limbs > 160) widths.push_back(160);
  return widths;
}

class MontgomeryOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MontgomeryOracle, PublicContextMatchesSquareAndMultiply) {
  const std::size_t limbs = GetParam();
  Drbg rng(limbs, "oracle-public");
  const BigInt n = random_modulus(limbs, rng);
  const MontgomeryCtx ctx(n);
  for (std::size_t ebits : {1u, 2u, 3u, 23u, 24u, 79u, 80u, 239u, 240u, 512u}) {
    const BigInt base = BigInt::random_below(n, rng);
    const BigInt e = BigInt::random_bits(ebits, rng);
    EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n)) << "ebits " << ebits;
  }
}

TEST_P(MontgomeryOracle, SecretContextMatchesSquareAndMultiply) {
  const std::size_t limbs = GetParam();
  Drbg rng(limbs, "oracle-secret");
  const BigInt n = random_modulus(limbs, rng);
  for (std::size_t width : secret_widths(limbs)) {
    const MontgomeryCtx ctx(n, width);
    for (int i = 0; i < 4; ++i) {
      const BigInt base = BigInt::random_below(n, rng);
      // Full-width, shorter secret-path, and public-class (< 64 bits).
      for (std::size_t ebits : {width, width - 7, std::size_t{64}, std::size_t{63}}) {
        const BigInt e = BigInt::random_bits(ebits, rng);
        EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n))
            << "width " << width << " ebits " << ebits;
      }
    }
  }
}

TEST_P(MontgomeryOracle, EdgeBasesAndExponents) {
  const std::size_t limbs = GetParam();
  Drbg rng(limbs, "oracle-edge");
  const BigInt n = random_modulus(limbs, rng);
  const std::size_t width = 64 * limbs;
  const std::vector<BigInt> bases = {
      BigInt(),                      // 0
      BigInt(1),                     //
      n - BigInt(1),                 // -1
      n,                             // = n, reduces to 0
      n + BigInt(5),                 // >= n
      n * BigInt(3) + BigInt(2),     // several multiples of n above
      all_ones(width),               // every limb all ones (>= n)
      all_ones(width - 64),          // all-ones limbs below n
      BigInt(1) << (width + 7),      // wider than the modulus
  };
  const std::vector<BigInt> exps = {
      BigInt(),
      BigInt(1),
      BigInt(2),
      BigInt(3),
      all_ones(64),
      all_ones(width),
      BigInt(1) << (width - 1),
      n - BigInt(1),
  };
  const MontgomeryCtx pub(n);
  const MontgomeryCtx sec(n, width);
  for (const BigInt& b : bases) {
    for (const BigInt& e : exps) {
      const BigInt want = oracle_exp(b, e, n);
      EXPECT_EQ(pub.exp(b, e), want) << b.to_hex() << " ^ " << e.to_hex();
      EXPECT_EQ(sec.exp(b, e), want) << b.to_hex() << " ^ " << e.to_hex();
    }
  }
}

TEST_P(MontgomeryOracle, ExponentsWithZeroTopWindow) {
  const std::size_t limbs = GetParam();
  Drbg rng(limbs, "oracle-window");
  const BigInt n = random_modulus(limbs, rng);
  for (std::size_t width : secret_widths(limbs)) {
    const MontgomeryCtx ctx(n, width);
    const BigInt base = BigInt::random_below(n, rng);
    // The padded top 4-bit window (and more) is zero; bit 64 keeps the
    // exponent on the secret path.
    for (std::size_t ebits : {width - 4, width - 5, std::size_t{65}}) {
      if (ebits < 64) continue;
      const BigInt e = BigInt::random_bits(ebits, rng);
      EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n)) << "ebits " << ebits;
    }
    // Zero windows in the middle and at the bottom.
    const BigInt sparse = (BigInt(1) << (width - 1)) + (BigInt(1) << 64);
    EXPECT_EQ(ctx.exp(base, sparse), oracle_exp(base, sparse, n));
  }
}

TEST_P(MontgomeryOracle, ExponentsAtAndAboveDeclaredWidth) {
  const std::size_t limbs = GetParam();
  Drbg rng(limbs, "oracle-width");
  const BigInt n = random_modulus(limbs, rng);
  for (std::size_t width : secret_widths(limbs)) {
    const MontgomeryCtx ctx(n, width);
    const BigInt base = BigInt::random_below(n, rng);
    for (std::size_t ebits : {width, width + 1, width + 64, 2 * width + 3}) {
      const BigInt e = BigInt::random_bits(ebits, rng);
      EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n)) << "ebits " << ebits;
    }
  }
}

TEST_P(MontgomeryOracle, MulMatchesSchoolbook) {
  const std::size_t limbs = GetParam();
  Drbg rng(limbs, "oracle-mul");
  const BigInt n = random_modulus(limbs, rng);
  const MontgomeryCtx ctx(n);
  const std::vector<BigInt> edges = {BigInt(), BigInt(1), n - BigInt(1),
                                     all_ones(64 * limbs - 1)};
  for (const BigInt& a : edges)
    for (const BigInt& b : edges) EXPECT_EQ(ctx.mul(a, b), a * b % n);
  for (int i = 0; i < 8; ++i) {
    const BigInt a = BigInt::random_below(n, rng);
    const BigInt b = BigInt::random_below(n, rng);
    EXPECT_EQ(ctx.mul(a, b), a * b % n);
  }
}

INSTANTIATE_TEST_SUITE_P(Limbs, MontgomeryOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17));

TEST(MontgomeryOracleBounds, LargestModulusWorksAndWiderThrows) {
  Drbg rng(64, "oracle-bounds");
  const BigInt n = random_modulus(MontgomeryCtx::kMaxLimbs, rng);
  const MontgomeryCtx ctx(n, 160);
  const BigInt base = BigInt::random_below(n, rng);
  const BigInt e = BigInt::random_bits(160, rng);
  EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n));

  const BigInt wide = all_ones(64 * (MontgomeryCtx::kMaxLimbs + 1));
  EXPECT_THROW(MontgomeryCtx{wide}, std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(wide, 160), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(BigInt(101), 8), std::invalid_argument);
}

/// An RSA key whose private exponent the test knows.
struct KnownRsaKey {
  BigInt n, d, p, q;
};

KnownRsaKey known_rsa_key(std::size_t bits, Drbg& rng) {
  const BigInt three(3);
  auto prime = [&] {
    for (;;) {
      BigInt c = generate_prime(bits / 2, rng);
      if (gcd(c - BigInt(1), three) == BigInt(1)) return c;
    }
  };
  for (;;) {
    BigInt p = prime();
    BigInt q = prime();
    BigInt n = p * q;
    if (p == q || n.bit_length() != bits) continue;
    BigInt d = mod_inverse(three, (p - BigInt(1)) * (q - BigInt(1)));
    return {n, d, p, q};
  }
}

TEST(MontgomeryOracleRsa, CrtSignMatchesPlainPrivateExponent) {
  Drbg rng(1024, "oracle-rsa");
  for (std::size_t bits : {512u, 1024u}) {
    const KnownRsaKey k = known_rsa_key(bits, rng);
    const RsaPrivateKey key(k.n, 3, k.d, k.p, k.q);
    const std::size_t len = key.public_key().modulus_bytes();
    for (int i = 0; i < 3; ++i) {
      const Bytes msg = {static_cast<std::uint8_t>(i), 0x42};
      const BigInt m = BigInt::from_bytes(pkcs1_encode_sha256(msg, len));
      const Bytes sig = key.sign(msg);
      EXPECT_EQ(BigInt::from_bytes(sig), oracle_exp(m, k.d, k.n)) << bits;
      EXPECT_TRUE(key.public_key().verify(msg, sig));
    }
  }
}

TEST(MontgomeryOracleRsa, TestKeySignaturesInvertUnderPublicExponent) {
  const Bytes msg = {1, 2, 3};
  for (int i = 0; i < 4; ++i) {
    const RsaPrivateKey& key = RsaPrivateKey::test_key(i);
    const RsaPublicKey& pub = key.public_key();
    const BigInt s = BigInt::from_bytes(key.sign(msg));
    EXPECT_EQ(oracle_exp(s, BigInt(pub.e()), pub.n()),
              BigInt::from_bytes(pkcs1_encode_sha256(msg, pub.modulus_bytes())));
  }
}

TEST(MontgomeryOracleFermat, InverseQMatchesEuclid) {
  for (DhBits bits : {DhBits::k512, DhBits::k1024}) {
    const DhGroup& grp = dh_group(bits);
    const BigInt& q = grp.q();
    Drbg rng(bits == DhBits::k512 ? 512 : 1024, "oracle-fermat");
    std::vector<BigInt> as = {BigInt(1), BigInt(2), q - BigInt(1),
                              q + BigInt(3), q * BigInt(5) + BigInt(7)};
    for (int i = 0; i < 16; ++i) as.push_back(BigInt::random_below(q, rng));
    for (const BigInt& a : as) {
      if ((a % q).is_zero()) continue;
      EXPECT_EQ(grp.inverse_q(a), mod_inverse(a, q)) << a.to_hex();
    }
    EXPECT_THROW(grp.inverse_q(BigInt()), std::domain_error);
    EXPECT_THROW(grp.inverse_q(q), std::domain_error);
    EXPECT_THROW(grp.inverse_q(q * BigInt(2)), std::domain_error);
  }
}

TEST(MontgomeryOracleFermat, CryptoContextInverseQKeepsContract) {
  const DhGroup& grp = dh_group(DhBits::k512);
  CryptoContext crypto(grp, RsaPrivateKey::test_key(0), CostModel{},
                       Drbg(7, "oracle-ctx"));
  Drbg rng(8, "oracle-ctx-a");
  const BigInt a = BigInt::random_below(grp.q(), rng) + BigInt(1);
  EXPECT_EQ(crypto.inverse_q(a), mod_inverse(a, grp.q()));
  EXPECT_EQ(crypto.counters().mod_inverse, 1u);
  EXPECT_THROW(crypto.inverse_q(grp.q()), std::domain_error);
}

}  // namespace
}  // namespace sgk
