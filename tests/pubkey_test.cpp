// Diffie-Hellman and RSA tests.
#include <gtest/gtest.h>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"

namespace sgk {
namespace {

TEST(DhGroup, ParametersAreWellFormed) {
  for (DhBits bits : {DhBits::k512, DhBits::k1024}) {
    const DhGroup& grp = dh_group(bits);
    EXPECT_EQ(grp.p_bits(), bits == DhBits::k512 ? 512u : 1024u);
    EXPECT_EQ(grp.q().bit_length(), 160u);
    EXPECT_EQ((grp.p() - BigInt(1)) % grp.q(), BigInt(0));
    EXPECT_EQ(grp.exp(grp.g(), grp.q()), BigInt(1));
  }
}

TEST(DhGroup, TwoPartyAgreement) {
  const DhGroup& grp = dh_group(DhBits::k512);
  Drbg rng(21, "dh");
  BigInt a = grp.random_exponent(rng);
  BigInt b = grp.random_exponent(rng);
  BigInt pub_a = grp.exp_g(a);
  BigInt pub_b = grp.exp_g(b);
  EXPECT_EQ(grp.exp(pub_b, a), grp.exp(pub_a, b));
}

TEST(DhGroup, RandomExponentInRange) {
  const DhGroup& grp = dh_group(DhBits::k512);
  Drbg rng(22, "dh-exp");
  for (int i = 0; i < 50; ++i) {
    BigInt e = grp.random_exponent(rng);
    EXPECT_FALSE(e.is_zero());
    EXPECT_LT(e, grp.q());
  }
}

TEST(DhGroup, ToExponentReducesAndAvoidsZero) {
  const DhGroup& grp = dh_group(DhBits::k512);
  EXPECT_EQ(grp.to_exponent(grp.q() + BigInt(5)), BigInt(5));
  EXPECT_EQ(grp.to_exponent(grp.q()), BigInt(1));  // zero maps to one
  EXPECT_EQ(grp.to_exponent(BigInt(7)), BigInt(7));
}

TEST(DhGroup, SubgroupClosure) {
  // Elements produced by exp_g stay in the order-q subgroup.
  const DhGroup& grp = dh_group(DhBits::k512);
  Drbg rng(23, "dh-closure");
  BigInt e = grp.random_exponent(rng);
  BigInt elem = grp.exp_g(e);
  EXPECT_EQ(grp.exp(elem, grp.q()), BigInt(1));
}

TEST(DhGroup, MulMatchesPlainProduct) {
  for (DhBits bits : {DhBits::k512, DhBits::k1024}) {
    const DhGroup& grp = dh_group(bits);
    const BigInt& p = grp.p();
    Drbg rng(24, "dh-mul");
    std::vector<BigInt> operands = {BigInt(0), BigInt(1), p - BigInt(1)};
    for (int i = 0; i < 16; ++i) operands.push_back(BigInt::random_below(p, rng));
    for (const BigInt& a : operands)
      for (const BigInt& b : operands)
        EXPECT_EQ(grp.mul(a, b), a * b % p) << a.to_hex() << " * " << b.to_hex();
  }
}

TEST(Pkcs1, EncodingShape) {
  Bytes em = pkcs1_encode_sha256(str_bytes("msg"), 128);
  EXPECT_EQ(em.size(), 128u);
  EXPECT_EQ(em[0], 0x00);
  EXPECT_EQ(em[1], 0x01);
  // 0xff padding until the zero separator.
  EXPECT_EQ(em[2], 0xff);
  EXPECT_THROW(pkcs1_encode_sha256(str_bytes("msg"), 32), std::invalid_argument);
}

TEST(Rsa, TestKeySignVerify) {
  const RsaPrivateKey& key = RsaPrivateKey::test_key(0);
  Bytes msg = str_bytes("group key agreement protocol message");
  Bytes sig = key.sign(msg);
  EXPECT_EQ(sig.size(), 128u);
  EXPECT_TRUE(key.public_key().verify(msg, sig));
}

TEST(Rsa, VerifyRejectsWrongMessage) {
  const RsaPrivateKey& key = RsaPrivateKey::test_key(0);
  Bytes sig = key.sign(str_bytes("message A"));
  EXPECT_FALSE(key.public_key().verify(str_bytes("message B"), sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  const RsaPrivateKey& key = RsaPrivateKey::test_key(1);
  Bytes msg = str_bytes("sign me");
  Bytes sig = key.sign(msg);
  sig[10] ^= 1;
  EXPECT_FALSE(key.public_key().verify(msg, sig));
}

TEST(Rsa, VerifyRejectsWrongKey) {
  Bytes msg = str_bytes("cross-key check");
  Bytes sig = RsaPrivateKey::test_key(0).sign(msg);
  EXPECT_FALSE(RsaPrivateKey::test_key(1).public_key().verify(msg, sig));
}

TEST(Rsa, VerifyRejectsBadSizes) {
  const RsaPrivateKey& key = RsaPrivateKey::test_key(2);
  Bytes msg = str_bytes("size checks");
  EXPECT_FALSE(key.public_key().verify(msg, Bytes(127, 0)));
  EXPECT_FALSE(key.public_key().verify(msg, Bytes(129, 0)));
  // A signature value >= n must be rejected.
  Bytes huge = key.public_key().n().to_bytes_padded(128);
  EXPECT_FALSE(key.public_key().verify(msg, huge));
}

TEST(Rsa, AllTestKeysDistinctAndValid) {
  Bytes msg = str_bytes("distinct");
  for (int i = 0; i < 4; ++i) {
    const RsaPrivateKey& key = RsaPrivateKey::test_key(i);
    EXPECT_EQ(key.public_key().n().bit_length(), 1024u);
    EXPECT_EQ(key.public_key().e(), 3u);
    EXPECT_TRUE(key.public_key().verify(msg, key.sign(msg)));
    for (int j = 0; j < i; ++j)
      EXPECT_NE(key.public_key().n(), RsaPrivateKey::test_key(j).public_key().n());
  }
}

TEST(Rsa, CrtMatchesPlainExponentiation) {
  const RsaPrivateKey& key = RsaPrivateKey::test_key(3);
  Bytes msg = str_bytes("crt cross-check");
  Bytes sig = key.sign(msg);
  // Recompute without CRT: s = m^d mod n.
  BigInt m = BigInt::from_bytes(pkcs1_encode_sha256(msg, 128));
  // d is private; verify instead via the public operation round-trip.
  BigInt s = BigInt::from_bytes(sig);
  MontgomeryCtx ctx(key.public_key().n());
  EXPECT_EQ(ctx.exp(s, BigInt(3)), m);
}

TEST(Rsa, GenerateSmallKeyWorks) {
  Drbg rng(31, "rsa-gen");
  RsaPrivateKey key = RsaPrivateKey::generate(512, rng);
  EXPECT_EQ(key.public_key().n().bit_length(), 512u);
  Bytes msg = str_bytes("freshly generated key");
  EXPECT_TRUE(key.public_key().verify(msg, key.sign(msg)));
}

TEST(Rsa, GenerateRespectsCustomExponent) {
  Drbg rng(32, "rsa-gen-e");
  RsaPrivateKey key = RsaPrivateKey::generate(512, rng, 65537);
  EXPECT_EQ(key.public_key().e(), 65537u);
  Bytes msg = str_bytes("e = 65537");
  EXPECT_TRUE(key.public_key().verify(msg, key.sign(msg)));
}

}  // namespace
}  // namespace sgk
