// RSA signatures: PKCS#1 v1.5 with SHA-256, CRT-accelerated signing.
//
// The paper uses 1024-bit RSA with public exponent 3 so that the n-per-round
// signature verifications of BD/GDH stay cheap; we default to the same.
#pragma once

#include <cstdint>
#include <memory>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "util/bytes.h"
#include "util/random_source.h"

namespace sgk {

class RsaPublicKey {
 public:
  RsaPublicKey(BigInt n, std::uint64_t e);

  const BigInt& n() const { return n_; }
  std::uint64_t e() const { return e_; }
  std::size_t modulus_bytes() const { return (n_.bit_length() + 7) / 8; }

  /// Verifies a PKCS#1 v1.5 SHA-256 signature. Never throws on mere
  /// signature mismatch; returns false.
  bool verify(const Bytes& message, const Bytes& signature) const;

 private:
  BigInt n_;
  std::uint64_t e_;
  MontgomeryCtx ctx_;
};

class RsaPrivateKey {
 public:
  /// From CRT components; derives all cached values. Requires n = p * q.
  RsaPrivateKey(BigInt n, std::uint64_t e, BigInt d, BigInt p, BigInt q);

  const RsaPublicKey& public_key() const { return pub_; }

  /// Produces a PKCS#1 v1.5 SHA-256 signature using the CRT speedup the
  /// paper mentions ("OpenSSL uses the Chinese Remainder Theorem").
  Bytes sign(const Bytes& message) const;

  /// Generates a fresh key of `bits` bits with public exponent `e`.
  static RsaPrivateKey generate(std::size_t bits, RandomSource& rng,
                                std::uint64_t e = 3);

  /// Fixed pre-generated 1024-bit, e=3 test keys (index 0..3), for tests and
  /// benchmarks that should not pay key generation time.
  static const RsaPrivateKey& test_key(int index);

 private:
  RsaPublicKey pub_;
  BigInt d_;
  BigInt p_, q_;
  BigInt dp_, dq_, qinv_;  // CRT exponents and q^{-1} mod p
  MontgomeryCtx ctx_p_, ctx_q_;  // dp_, dq_ run on the constant-time path
};

/// The PKCS#1 v1.5 DigestInfo encoding of SHA-256(message), padded to
/// `em_len` bytes. Exposed for tests.
Bytes pkcs1_encode_sha256(const Bytes& message, std::size_t em_len);

}  // namespace sgk
