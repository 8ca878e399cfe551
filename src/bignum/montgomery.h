// Montgomery modular arithmetic and windowed exponentiation.
//
// This mirrors the implementation strategy the paper attributes to OpenSSL
// (Montgomery reduction + windowed exponentiation), which matters for the
// fidelity of the cost model: the cost of a modular exponentiation is
// essentially (#squarings + #multiplies) * cost(montgomery multiply), i.e.
// roughly linear in the exponent bit-length for a fixed modulus size.
//
// One exponentiation engine serves every modulus: the fixed-window and
// comb secret paths, the comb build, the sliding-window public path and the
// product below are written once, over a backend that supplies only the
// radix conversions, the Montgomery product (and squaring) and the masked
// table scan. It works on stack arrays; nothing is allocated inside an
// exponentiation.
//
// The portable backend is one product-scanning kernel in radix 2^64. It is
// compiled for a fixed limb count of 8 and 16 (DH-512 and the RSA-1024 CRT
// halves; DH-1024 and RSA-1024) with its column loops fully unrolled, and
// runs every other size with a runtime limb count of up to kMaxLimbs. At 8
// and 16 limbs every squaring of an exponentiation or comb build runs a
// dedicated squaring: each column's cross products are summed once and
// doubled without a branch, then the diagonal term and the reduction terms
// are added, about three quarters of the product's limb multiplies. Like
// the product, it runs one instruction sequence for every input and leaves
// nothing visible beyond the limb count. At runtime limb counts squarings
// run the product, which measured faster there.
//
// On x86-64 CPUs whose cpuid reports BMI2 and ADX, the 8- and 16-limb
// product and squaring run MULX/ADCX/ADOX routines instead
// (montgomery_adx.h): operand-scanning rows whose two carry chains (ADCX on
// the carry flag, ADOX on the overflow flag) interleave, each routine ending
// in its own branch-free final subtraction and storing the reduced result.
// The 8-limb squaring keeps its cross products and their doubling in
// registers. They compute exactly what the portable kernel computes.
//
// On CPUs with AVX512F, AVX512IFMA and AVX512VL (and an OS that saves the
// ZMM state), 16-limb moduli run a radix-2^52 backend instead
// (montgomery_ifma.h): 20 digits of 52 bits in three 512-bit registers, an
// almost-Montgomery product by VPMADD52LUQ/HUQ rows whose results stay in
// [0, 2n), and a masked scan over whole registers. The base enters the
// radix once per exponentiation and the result leaves it once, through a
// single branch-free subtraction that reduces it below n. 8-limb moduli
// stay on MULX/ADCX/ADOX, which measured as fast there.
//
// Every backend has no branch and no load or store whose address depends
// on the data, and every loop counts limbs or digits. Which kernel runs
// (montgomery_kernel()) is decided once per process by the CPU, never by
// the operands; no option selects it (only a test seam can cap it). exp()
// takes one of two paths:
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
  // 16-limb moduli on CPUs with IFMA: n, then 2^2080 mod n, in radix 2^52
  // (ifma::kWords words each); null otherwise. Copies share it.
  std::shared_ptr<const std::uint64_t[]> radix52_;
  std::shared_ptr<FixedBase> fixed_;  // null: no fixed base
};

/// The routines that run a modulus's Montgomery products.
enum class MontgomeryKernel { kPortable, kAdx, kIfma };

/// The kernel that serves moduli of `limbs` 64-bit limbs in this process:
/// kIfma at 16 limbs where the CPU has AVX512F, AVX512IFMA and AVX512VL;
/// else kAdx at 8 and 16 limbs where it has BMI2 and ADX; else kPortable.
MontgomeryKernel montgomery_kernel(std::size_t limbs);

/// "avx512-ifma", "mulx/adcx/adox" or "portable".
const char* kernel_name(MontgomeryKernel kernel);

/// Test seam: while one is alive, no product in the process runs a kernel
/// above `cap` in the order kPortable < kAdx < kIfma, so that the oracle
/// tests can check every kernel in one binary. Not for use outside tests.
class KernelCapForTesting {
 public:
  explicit KernelCapForTesting(MontgomeryKernel cap);
  ~KernelCapForTesting();
  KernelCapForTesting(const KernelCapForTesting&) = delete;
  KernelCapForTesting& operator=(const KernelCapForTesting&) = delete;

 private:
  MontgomeryKernel previous_;
};

}  // namespace sgk
