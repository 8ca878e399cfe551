#include "crypto/dsa.h"

#include "bignum/modmath.h"
#include "crypto/sha256.h"
#include "util/check.h"
#include "util/serde.h"

namespace sgk {

namespace {
/// Hash of the message reduced into the exponent field Z_q.
BigInt hash_to_zq(const Bytes& message, const BigInt& q) {
  return BigInt::from_bytes(Sha256::digest(message)) % q;
}
}  // namespace

DsaPrivateKey::DsaPrivateKey(const DhGroup& group, RandomSource& rng)
    : group_(group),
      x_(group.random_exponent(rng)),
      pub_(group, group.exp_g(x_)) {}

DsaSignature DsaPrivateKey::sign(const Bytes& message, RandomSource& rng) const {
  const BigInt& q = group_.q();
  const BigInt h = hash_to_zq(message, q);
  for (;;) {
    const SecureBigInt k = group_.random_exponent(rng);
    const BigInt r = group_.exp_g(k) % q;
    if (r.is_zero()) continue;
    // s = k^{-1} (h + x r) mod q
    const BigInt s = group_.inverse_q(k) * ((h + x_.get() * r % q) % q) % q;
    if (s.is_zero()) continue;
    return DsaSignature{r, s};
  }
}

bool DsaPublicKey::verify(const Bytes& message, const DsaSignature& sig) const {
  const BigInt& q = group_.q();
  if (sig.r.is_zero() || sig.r >= q || sig.s.is_zero() || sig.s >= q) return false;
  const BigInt h = hash_to_zq(message, q);
  BigInt w;
  try {
    w = mod_inverse(sig.s, q);
  } catch (const std::domain_error&) {
    return false;
  }
  const BigInt u1 = h * w % q;
  const BigInt u2 = sig.r * w % q;
  // v = (g^u1 * y^u2 mod p) mod q — the two expensive exponentiations.
  const BigInt v = group_.exp_public(group_.g(), u1) *
                   group_.exp_public(y_, u2) % group_.p() % q;
  return v == sig.r;
}

Bytes dsa_signature_to_bytes(const DsaSignature& sig, std::size_t q_bytes) {
  Writer w;
  w.bytes(sig.r.to_bytes_padded(q_bytes));
  w.bytes(sig.s.to_bytes_padded(q_bytes));
  return w.take();
}

DsaSignature dsa_signature_from_bytes(const Bytes& data) {
  Reader r(data);
  DsaSignature sig;
  sig.r = BigInt::from_bytes(r.bytes_view());
  sig.s = BigInt::from_bytes(r.bytes_view());
  return sig;
}

}  // namespace sgk
