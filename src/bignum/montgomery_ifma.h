// AVX-512 IFMA Montgomery product for 16-limb (1024-bit) moduli (internal
// to src/bignum; montgomery.cpp is the only caller outside the tests).
//
// Values are 20 digits of 52 bits (radix 2^52, 1040 bits), held in three
// 512-bit registers of 8 digits: kWords words in memory, the top four
// always zero. R = 2^1040. The product is an almost-Montgomery
// multiplication after Drucker & Gueron, "Fast modular squaring with
// AVX512IFMA" (ePrint 2018/335): for a, b < 2n (4n < R) it returns
// a * b / R mod n in [0, 2n), not necessarily below n, so values stay in
// [0, 2n) through an exponentiation and store() makes the one final
// subtraction. Each of the 20 rows adds b[i] * a and m * n into an
// accumulator of 64-bit lanes (VPMADD52LUQ adds the low 52 bits of a 52 x
// 52-bit product to a lane, VPMADD52HUQ the high 52 bits) and moves it down
// one digit. The reduction multiplier m of a row is computed in scalar code
// from the accumulator's lowest digit, which the scalar code also keeps, so
// only digit 1 is read back from a register per row. After the last row
// one vector pass carries every lane's bits above 52 into the next digit,
// and the 0/1 carries that pass leaves ripple by mask arithmetic: with G
// the digits that overflowed and P those equal to 2^52 - 1, the digits that
// take a carry are ((G << 1) + P) xor P.
//
// Every routine runs one instruction sequence for every input: no branch
// and no load or store address depends on the data, and every loop counts
// digits, words or table entries. VPMADD52LUQ/HUQ are on Intel's list of
// instructions whose timing does not depend on their data operands. Which
// routine runs depends on the CPU (selected()), never on operands.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sgk::ifma {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// True where the routines are part of the build: x86-64 with a compiler
/// that takes function-level target("avx512ifma") attributes.
inline constexpr bool kBuilt = true;
#else
inline constexpr bool kBuilt = false;
#endif

/// Radix-2^52 digits of a 16-limb value, and the words that hold them.
inline constexpr std::size_t kDigits = 20;
inline constexpr std::size_t kWords = 24;

/// True iff the CPU can run the routines: cpuid leaf 7 EBX reports AVX512F
/// (bit 16), AVX512IFMA (bit 21) and AVX512VL (bit 31), and XGETBV reports
/// that the OS saves the opmask and ZMM state. Decided once per process.
bool selected();

// The routines below are defined only where kBuilt is true, and may be
// called only where selected() is also true.

/// out (kWords words) = the 16-limb value in (below 2^1024) in radix 2^52.
void load(std::uint64_t* out, const std::uint64_t* in);

/// out (16 limbs) = v mod n for v < 2n in radix 2^52 (digits below 2^52)
/// and n the 16-limb modulus: one branch-free subtraction of n.
void store(std::uint64_t* out, const std::uint64_t* v, const std::uint64_t* n);

/// out = a * b / R mod n in [0, 2n), for a, b < 2n with digits below 2^52,
/// n in radix 2^52 and k0 = -n^{-1} mod 2^52. out may alias a or b.
void mul(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
         const std::uint64_t* n, std::uint64_t k0);

/// out = entry `index` of a 16-entry table whose kWords-word entries start
/// `stride` words apart: every entry is read whole and ORed in under an
/// all-ones or all-zero mask.
void select(std::uint64_t* out, const std::uint64_t* table, std::size_t stride,
            std::uint64_t index);

}  // namespace sgk::ifma
