// MULX/ADCX/ADOX Montgomery product and squaring for 8- and 16-limb moduli
// on x86-64 (internal to src/bignum; montgomery.cpp is the only caller
// outside the tests).
//
// Each routine is operand-scanning rows after Intel's "New Instructions
// Supporting Large Integer Arithmetic on Intel Architecture Processors"
// (2012) and OpenSSL's mulx4x/sqrx8x: a row multiplies one word by a whole
// operand and adds it into the accumulator with two independent carry
// chains, the low halves of the row's products on the ADOX (overflow flag)
// chain and the high halves plus the accumulator words on the ADCX (carry
// flag) chain. The squarings form each cross product once, then double them
// on the ADCX chain while the ADOX chain adds the squares of the limbs, and
// reduce afterwards. The 8-limb squaring keeps its cross products in
// registers: the low half of a^2 never leaves them, and the high half waits
// on the stack for the reduction's final add; the 16-limb squaring builds
// a^2 in a stack window.
//
// Contract, identical for every routine: for a, b < n (n odd, k = 8 or 16
// limbs), `out` receives the k words of a * b / 2^(64k) mod n, fully reduced
// (< n). out may alias a or b (not n); it is written only after the last
// read of a and b. Each routine ends in a branch-free final subtraction: n
// is subtracted on one borrow chain and a CMOV on the borrow keeps, limb by
// limb, the value or the difference. Every routine runs one instruction
// sequence for every input: no branch and no load or store address depends
// on a, b or the result, and its loops count limbs only. Which routine runs
// depends on the CPU (selected()), never on operands.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sgk::adx {

#if defined(__x86_64__) && defined(__ELF__)
/// True where the routines are part of the build: x86-64 ELF targets (the
/// assembly uses ELF section and symbol directives).
inline constexpr bool kBuilt = true;
#else
inline constexpr bool kBuilt = false;
#endif

/// True iff the CPU can run these routines: where kBuilt, decided once per
/// process by whether it has BMI2 (MULX) and ADX (ADCX/ADOX), cpuid leaf 7
/// EBX bits 8 and 19. montgomery_kernel() (montgomery.h) says which moduli
/// they serve.
bool selected();

// Defined only where kBuilt is true, and only called there.
extern "C" {
void sgk_mont_mul8_adx(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
                       const std::uint64_t* n, std::uint64_t n0_inv);
void sgk_mont_mul16_adx(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
                        const std::uint64_t* n, std::uint64_t n0_inv);
void sgk_mont_sqr8_adx(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* n,
                       std::uint64_t n0_inv);
void sgk_mont_sqr16_adx(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* n,
                        std::uint64_t n0_inv);
}

/// out = a * b / R mod n at K = 8 or 16; see the contract above.
template <std::size_t K>
void mul(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
         const std::uint64_t* n, std::uint64_t n0_inv) {
  static_assert(K == 8 || K == 16);
  if constexpr (K == 8)
    sgk_mont_mul8_adx(out, a, b, n, n0_inv);
  else
    sgk_mont_mul16_adx(out, a, b, n, n0_inv);
}

/// out = a * a / R mod n at K = 8 or 16; see the contract above.
template <std::size_t K>
void sqr(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* n,
         std::uint64_t n0_inv) {
  static_assert(K == 8 || K == 16);
  if constexpr (K == 8)
    sgk_mont_sqr8_adx(out, a, n, n0_inv);
  else
    sgk_mont_sqr16_adx(out, a, n, n0_inv);
}

}  // namespace sgk::adx
