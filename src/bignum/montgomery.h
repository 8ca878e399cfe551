// Montgomery modular arithmetic and windowed exponentiation.
//
// This mirrors the implementation strategy the paper attributes to OpenSSL
// (Montgomery reduction + windowed exponentiation), which matters for the
// fidelity of the cost model: the cost of a modular exponentiation is
// essentially (#squarings + #multiplies) * cost(montgomery multiply), i.e.
// roughly linear in the exponent bit-length for a fixed modulus size.
//
// One product-scanning kernel serves every modulus. It works on stack
// arrays (nothing is allocated inside an exponentiation), is compiled for a
// fixed limb count of 8 and 16 (DH-512 and the RSA-1024 CRT halves; DH-1024
// and RSA-1024) with its column loops fully unrolled, and runs every other
// size with a runtime limb count of up to kMaxLimbs. At 8 and 16 limbs every
// squaring of an exponentiation or comb build runs a dedicated squaring:
// each column's cross products are summed once and doubled without a
// branch, then the diagonal term and the reduction terms are added, about
// three quarters of the product's limb multiplies. Like the product, it runs
// one instruction sequence for every input and leaves nothing visible beyond
// the limb count. At runtime limb counts squarings run the product, which
// measured faster there.
//
// On x86-64 CPUs whose cpuid reports BMI2 and ADX, the 8- and 16-limb
// product and squaring run MULX/ADCX/ADOX routines instead
// (montgomery_adx.h): operand-scanning rows whose two carry chains (ADCX on
// the carry flag, ADOX on the overflow flag) interleave, each routine ending
// in its own branch-free final subtraction and storing the reduced result.
// The 8-limb squaring keeps its cross products and their doubling in
// registers. They compute exactly what the portable kernel computes. Like
// it, they have no branch and no load or store whose address depends on the
// data, and every loop counts limbs. Which kernel runs is
// decided once per process by the CPU, never by the operands; no option
// selects it (only a test seam can force the portable kernel). exp() takes
// one of two paths:
//
//  * secret path: a context built with a secret exponent width runs every
//    exponent of 64 bits up to that width in fixed 4-bit windows over the
//    exponent padded to the width, selects table entries by a masked scan of
//    the whole table, and reduces without branches. The scan reads every
//    limb of all 16 entries and ORs each under an all-ones or all-zero mask
//    into a local limb array, which stays in registers, and stores the
//    result once; there is no branch and no load indexed by the secret. Its
//    time depends on the modulus and the declared width only
//    (docs/hardening.md, "Constant-time modular exponentiation").
//    A context may also carry one fixed base (DhGroup's generator g). A
//    secret-path exponent of exactly that base runs a Lim-Lee comb
//    (Lim & Lee, "More flexible exponentiation with precomputation",
//    CRYPTO '94) over a table built on first use: 4 teeth and 8 tables of
//    16 entries, so a 160-bit exponent costs 4 squarings and 39 multiplies
//    instead of ~214 products. Each multiplier comes from the same masked
//    scan. Its time depends on the modulus, the width and the table shape
//    only.
//  * public path: every other exponent (RSA e=3 verification, BD's small
//    step-3 exponents, Miller-Rabin, DSA verification) runs a sliding window
//    whose width follows the exponent length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bignum/bigint.h"

namespace sgk {

/// Precomputed context for arithmetic modulo a fixed odd modulus.
class MontgomeryCtx {
 public:
  /// Largest modulus, in 64-bit limbs (4096 bits).
  static constexpr std::size_t kMaxLimbs = 64;

  /// Public-exponent context. Requires an odd modulus > 1 of at most
  /// kMaxLimbs limbs; throws std::invalid_argument otherwise.
  explicit MontgomeryCtx(const BigInt& modulus);
  /// Context whose exponents of 64 to `secret_bits` bits are secret and run
  /// the constant-time path. Throws std::invalid_argument as above, or if
  /// `secret_bits` exceeds the modulus width. Inline, so that every
  /// construction passes through the out-of-line one-argument constructor,
  /// where perfbench's trace counts context builds.
  MontgomeryCtx(const BigInt& modulus, std::size_t secret_bits)
      : MontgomeryCtx(modulus) {
    if (secret_bits > n_.bit_length())
      throw std::invalid_argument("MontgomeryCtx: secret width exceeds modulus");
    ct_width_ = secret_bits;
  }
  /// Secret-width context with a fixed base: exp(fixed_base, e) runs the
  /// comb for every secret-path e. The base is compared as given, so an
  /// unreduced equivalent (fixed_base + n) takes the window path. The comb
  /// table is built on the first such call; copies share it. Throws
  /// std::invalid_argument as above, or if fixed_base >= modulus.
  MontgomeryCtx(const BigInt& modulus, std::size_t secret_bits,
                const BigInt& fixed_base)
      : MontgomeryCtx(modulus, secret_bits) {
    set_fixed_base(fixed_base);
  }

  const BigInt& modulus() const { return n_; }

  /// (a * b) mod n, without a branch on the operands' values. The kernel
  /// takes any operand of at most n's bit length as it is, reduced or not;
  /// only a wider one, whose width is public, is first reduced by a
  /// division. exp() treats its base the same way.
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// (base ^ exp) mod n. base need not be reduced.
  BigInt exp(const BigInt& base, const BigInt& exp) const;

 private:
  struct FixedBase;  // the base, its once-flag and comb table
  void set_fixed_base(const BigInt& base);

  BigInt n_;
  std::size_t k_ = 0;              // limb count of n_
  std::size_t ct_width_ = 0;       // declared secret width; 0: none
  std::uint64_t n0_inv_ = 0;       // -n^{-1} mod 2^64
  std::vector<std::uint64_t> r2_;  // R^2 mod n, k_ limbs
  std::shared_ptr<FixedBase> fixed_;  // null: no fixed base
};

/// Convenience one-shot (base ^ exp) mod modulus. For odd moduli uses
/// Montgomery; for even moduli falls back to square-and-multiply with full
/// reductions (only needed by tests).
BigInt mod_exp(const BigInt& base, const BigInt& exp, const BigInt& modulus);

}  // namespace sgk
