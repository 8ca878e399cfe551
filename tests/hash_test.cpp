// SHA-256 / HMAC / HKDF / ChaCha20 / DRBG tests against published vectors.
#include <gtest/gtest.h>

#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/bytes.h"

namespace sgk {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::digest(str_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::digest(str_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 'a' characters: exactly one block before padding.
  Bytes msg(64, 'a');
  EXPECT_EQ(to_hex(Sha256::digest(msg)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes msg = str_bytes("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); ++i) h.update(&msg[i], 1);
  EXPECT_EQ(h.finish(), Sha256::digest(msg));
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  // gka-lint: allow(GKA002) -- public RFC 4231 test vector, not a real key
  EXPECT_EQ(to_hex(hmac_sha256(key, str_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(str_bytes("Jefe"),
                               str_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  // gka-lint: allow(GKA002) -- public RFC 4231 test vector, not a real key
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(Hmac, KeyLongerThanBlock) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, str_bytes("Test Using Larger Than Block-Size Key - "
                               "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3: empty salt and info.
TEST(Hkdf, Rfc5869Case3) {
  Bytes ikm(22, 0x0b);
  Bytes okm = hkdf_sha256(ikm, {}, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, RejectsOversizedOutput) {
  EXPECT_THROW(hkdf_sha256({1, 2, 3}, {}, {}, 255 * 32 + 1), std::invalid_argument);
}

// RFC 8439 section 2.4.2 test vector.
TEST(ChaCha20, Rfc8439Encryption) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000000000004a00000000");
  Bytes plaintext = str_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only one "
      "tip for the future, sunscreen would be it.");
  ChaCha20 cipher(key, nonce, 1);
  Bytes ct = cipher.process(plaintext);
  EXPECT_EQ(to_hex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, DecryptIsInverse) {
  Bytes key(32, 0x42);
  Bytes nonce(12, 0x24);
  Bytes msg = str_bytes("round trip message");
  ChaCha20 enc(key, nonce);
  Bytes ct = enc.process(msg);
  ChaCha20 dec(key, nonce);
  EXPECT_EQ(dec.process(ct), msg);
  EXPECT_NE(ct, msg);
}

TEST(ChaCha20, RejectsBadSizes) {
  EXPECT_THROW(ChaCha20(Bytes(31, 0), Bytes(12, 0)), std::invalid_argument);
  EXPECT_THROW(ChaCha20(Bytes(32, 0), Bytes(11, 0)), std::invalid_argument);
}

TEST(Drbg, DeterministicForSameSeed) {
  Drbg a(1234, "label");
  Drbg b(1234, "label");
  std::uint8_t buf_a[64], buf_b[64];
  a.fill(buf_a, 64);
  b.fill(buf_b, 64);
  EXPECT_TRUE(std::equal(buf_a, buf_a + 64, buf_b));
}

TEST(Drbg, LabelSeparatesStreams) {
  Drbg a(1234, "label-one");
  Drbg b(1234, "label-two");
  std::uint8_t buf_a[32], buf_b[32];
  a.fill(buf_a, 32);
  b.fill(buf_b, 32);
  EXPECT_FALSE(std::equal(buf_a, buf_a + 32, buf_b));
}

TEST(Drbg, NextU64RespectsBound) {
  Drbg rng(99, "bound");
  for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_u64(17), 17u);
  EXPECT_EQ(rng.next_u64(1), 0u);
  EXPECT_EQ(rng.next_u64(0), 0u);
}

TEST(Drbg, NextDoubleInUnitInterval) {
  Drbg rng(100, "dbl");
  for (int i = 0; i < 100; ++i) {
    double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Drbg, ForkIndependentOfSiblingOrder) {
  Drbg parent1(55, "parent");
  Drbg parent2(55, "parent");
  Drbg c1 = parent1.fork("child");
  Drbg c2 = parent2.fork("child");
  std::uint8_t a[16], b[16];
  c1.fill(a, 16);
  c2.fill(b, 16);
  EXPECT_TRUE(std::equal(a, a + 16, b));
}

}  // namespace
}  // namespace sgk
