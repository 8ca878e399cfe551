#include "core/crypto_context.h"

#include "bignum/modmath.h"
#include "obs/wallclock.h"
#include "util/serde.h"

// Wall-clock instrumentation note: the bignum and crypto layers sit below
// obs in the GKA101 DAG and must stay free of observability hooks, so the
// per-primitive WallScope sites live here — every modexp / inverse / modmul
// / sign / verify / DRBG call in the tree funnels through this context, so
// timing the boundary times exactly the primitive underneath it. The sites
// keep bignum/crypto prefixes to say what is being measured, not where the
// scope lives.

namespace sgk {

SecureBigInt CryptoContext::random_exponent() {
  obs::WallScope wall("crypto/drbg");
  SecureBigInt e = group_.random_exponent(rng_);
  sync_drbg();
  return e;
}

BigInt CryptoContext::exp(const BigInt& base, const BigInt& e) {
  const std::size_t ebits = e.bit_length();
  // The paper's accounting treats anything with a session-exponent-sized
  // exponent as a "full" exponentiation; BD's step-3 exponents (< group
  // size) are the "small" ones.
  if (ebits >= 64)
    ++counters_.exp_full;
  else
    ++counters_.exp_small;
  meter_ms_ += cost_.mod_exp_ms(group_.p_bits(), ebits);
  obs::WallScope wall(ebits >= 64 ? "bignum/modexp_full"
                                  : "bignum/modexp_small");
  return group_.exp(base, e);
}

BigInt CryptoContext::exp_g(const BigInt& e) { return exp(group_.g(), e); }

BigInt CryptoContext::inverse_q(const BigInt& a) {
  ++counters_.mod_inverse;
  meter_ms_ += cost_.modinv_ms;
  obs::WallScope wall("bignum/modinv");
  return group_.inverse_q(a);
}

BigInt CryptoContext::inverse_p(const BigInt& a) {
  ++counters_.mod_inverse;
  meter_ms_ += cost_.modinv_ms;
  obs::WallScope wall("bignum/modinv");
  return mod_inverse(a, group_.p());
}

BigInt CryptoContext::mul_p(const BigInt& a, const BigInt& b) {
  ++counters_.mod_mul;
  meter_ms_ += cost_.mult_ms(group_.p_bits());
  obs::WallScope wall("bignum/modmul");
  return a * b % group_.p();
}

Bytes CryptoContext::sign(const Bytes& message) {
  obs::WallScope wall("crypto/sign");
  ++counters_.sign_ops;
  ++counters_.hash_ops;
  if (scheme_ == SigScheme::kDsa) {
    // One full exponentiation plus field arithmetic.
    meter_ms_ += cost_.mod_exp_ms(group_.p_bits(), group_.q().bit_length()) +
                 cost_.modinv_ms + cost_.sha256_ms(message.size());
    Bytes sig = dsa_signature_to_bytes(dsa_->sign(message, rng_),
                                       (group_.q().bit_length() + 7) / 8);
    sync_drbg();
    return sig;
  }
  meter_ms_ += cost_.rsa_sign_ms(rsa_.public_key().n().bit_length()) +
               cost_.sha256_ms(message.size());
  return rsa_.sign(message);
}

bool CryptoContext::verify(const VerifyKey& pub, const Bytes& message,
                           const Bytes& sig) {
  obs::WallScope wall("crypto/verify");
  ++counters_.verify_ops;
  ++counters_.hash_ops;
  if (const auto* dsa = std::get_if<DsaPublicKey>(&pub)) {
    // Two full exponentiations — the paper's "expensive verification".
    meter_ms_ += 2 * cost_.mod_exp_ms(group_.p_bits(), group_.q().bit_length()) +
                 cost_.modinv_ms + cost_.sha256_ms(message.size());
    try {
      return dsa->verify(message, dsa_signature_from_bytes(sig));
    } catch (const DecodeError&) {
      return false;
    }
  }
  const RsaPublicKey& rsa = std::get<RsaPublicKey>(pub);
  // Public exponents are small (e=3 by default): ~log2(e) multiplies.
  std::size_t e_bits = 0;
  for (std::uint64_t e = rsa.e(); e != 0; e >>= 1) ++e_bits;
  meter_ms_ += cost_.rsa_verify_ms(rsa.n().bit_length(), e_bits) +
               cost_.sha256_ms(message.size());
  return rsa.verify(message, sig);
}

void CryptoContext::charge_symmetric(std::size_t bytes) {
  ++counters_.hash_ops;
  meter_ms_ += cost_.aes_ms(bytes) + cost_.sha256_ms(bytes);
}

Bytes CryptoContext::random_bytes(std::size_t n) {
  obs::WallScope wall("crypto/drbg");
  Bytes out(n);
  rng_.fill(out.data(), out.size());
  sync_drbg();
  return out;
}

}  // namespace sgk
