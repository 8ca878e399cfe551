// Instrumented cryptography for key agreement protocols.
//
// Every protocol performs its cryptography through a CryptoContext, which
// (a) executes the real big-number operation, (b) counts it for the
// conceptual-cost experiments, and (c) charges its modeled cost to the
// member's accumulated compute meter, which the SecureGroupMember turns into
// virtual CPU time on the member's machine.
#pragma once

#include <optional>
#include <variant>

#include "bignum/bigint.h"
#include "bignum/secure_bigint.h"
#include "core/counters.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/dsa.h"
#include "crypto/rsa.h"
#include "core/cost_model.h"
#include "util/bytes.h"

namespace sgk {

/// The signature scheme used for protocol message authentication. The paper
/// uses RSA with e=3 and explicitly calls out DSA's expensive verification
/// as the alternative to avoid; both are supported so the trade-off can be
/// measured (bench/ablation).
enum class SigScheme { kRsa, kDsa };

/// A member's public verification key as stored in the PKI. Stored by value:
/// the PKI must outlive the members (a departed member's in-flight messages
/// are still verified after it is destroyed).
using VerifyKey = std::variant<RsaPublicKey, DsaPublicKey>;

class CryptoContext {
 public:
  CryptoContext(const DhGroup& group, const RsaPrivateKey& rsa,
                CostModel cost, Drbg rng, SigScheme scheme = SigScheme::kRsa)
      : group_(group), rsa_(rsa), cost_(cost), rng_(std::move(rng)),
        scheme_(scheme) {
    if (scheme_ == SigScheme::kDsa) dsa_.emplace(group_, rng_);
    // Long-term key generation above is setup, not protocol cost.
    last_drbg_ = rng_.bytes_generated();
  }

  const DhGroup& group() const { return group_; }
  const RsaPublicKey& public_key() const { return rsa_.public_key(); }
  /// This member's verification key (matches the configured scheme).
  VerifyKey verify_key() const {
    if (scheme_ == SigScheme::kDsa) return dsa_->public_key();
    return rsa_.public_key();
  }

  /// Fresh session exponent in [1, q), in zeroizing storage.
  SecureBigInt random_exponent();

  /// (base ^ e) mod p; counted as a full or small exponentiation by the
  /// exponent's bit length.
  BigInt exp(const BigInt& base, const BigInt& e);
  /// g ^ e mod p.
  BigInt exp_g(const BigInt& e);

  /// Inverse of a secret exponent modulo q (GDH factor-out, CKD unwrap), by
  /// mod_inverse's constant-time safegcd.
  BigInt inverse_q(const BigInt& a);
  /// Inverse of a public group element modulo p (BD's z_{i-1}^{-1}), by
  /// mod_inverse's safegcd, whose operation sequence depends on p only.
  BigInt inverse_p(const BigInt& a);
  /// (a * b) mod p by the group's Montgomery context, without a division or
  /// a branch on the operands' values (BD's ratio and key product).
  BigInt mul_p(const BigInt& a, const BigInt& b);
  /// Reduce an arbitrary value into a usable exponent (tree protocols).
  BigInt to_exponent(const BigInt& v) const { return group_.to_exponent(v); }

  Bytes sign(const Bytes& message);
  bool verify(const VerifyKey& pub, const Bytes& message, const Bytes& sig);

  /// Charges symmetric-crypto time (group data encryption, KDF).
  void charge_symmetric(std::size_t bytes);

  /// Raw randomness (group secrets, IVs).
  Bytes random_bytes(std::size_t n);

  OpCounters& counters() { return counters_; }
  const OpCounters& counters() const { return counters_; }

  /// Compute milliseconds accumulated since the last take_charge().
  double take_charge() {
    double c = meter_ms_;
    meter_ms_ = 0;
    return c;
  }

 private:
  /// Folds bytes drawn from the DRBG since the last sync into the counters.
  void sync_drbg() {
    const std::uint64_t total = rng_.bytes_generated();
    counters_.drbg_bytes += total - last_drbg_;
    last_drbg_ = total;
  }

  const DhGroup& group_;
  const RsaPrivateKey& rsa_;
  CostModel cost_;
  Drbg rng_;
  SigScheme scheme_;
  std::optional<DsaPrivateKey> dsa_;
  OpCounters counters_;
  double meter_ms_ = 0;
  std::uint64_t last_drbg_ = 0;
};

}  // namespace sgk
