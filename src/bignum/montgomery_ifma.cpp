#include "bignum/montgomery_ifma.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
// GCC 12's AVX-512 intrinsics fill unused operands from a self-initialized
// variable (_mm512_undefined_epi32), which -Wuninitialized (and, in some
// builds, -Wmaybe-uninitialized) reports inside the header once the
// intrinsics are inlined here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#if !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>

// The routines carry their own target attribute, so this file compiles with
// the build's flags and nothing in it runs on a CPU without IFMA unless
// selected() said otherwise.
#define SGK_IFMA __attribute__((target("avx512f,avx512ifma,avx512vl")))

namespace sgk::ifma {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask52 = (u64{1} << 52) - 1;
constexpr std::size_t kLimbs = 16;  // 64-bit limbs of the modulus
constexpr std::size_t kEntries = 16;  // entries of a select() table

bool cpu_has_ifma() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & bit_OSXSAVE) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kFeatures = 1u << 16 | 1u << 21 | 1u << 31;  // AVX512F, IFMA, VL
  if ((ebx & kFeatures) != kFeatures) return false;
  unsigned xcr0 = 0;
  unsigned xcr0_high = 0;
  asm volatile("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  // XCR0: SSE and AVX state (bits 1-2), opmask and ZMM state (bits 5-7).
  constexpr unsigned kState = 0x6 | 0xe0;
  return (xcr0 & kState) == kState;
}

// All ones if a == b, else zero, without a branch.
u64 eq_mask(u64 a, u64 b) {
  const u64 x = a ^ b;
  return ((x | (0 - x)) >> 63) - 1;
}

SGK_IFMA __m512i load3(const u64* p, int i) { return _mm512_loadu_si512(p + 8 * i); }
}  // namespace

bool selected() {
  static const bool cpu = cpu_has_ifma();
  return cpu;
}

void load(u64* out, const u64* in) {
  u128 acc = 0;
  int bits = 0;  // bits of acc not yet emitted
  std::size_t w = 0;
  for (std::size_t d = 0; d < kDigits; ++d) {
    if (bits < 52 && w < kLimbs) {
      acc |= static_cast<u128>(in[w++]) << bits;
      bits += 64;
    }
    out[d] = static_cast<u64>(acc) & kMask52;
    acc >>= 52;
    bits -= 52;
  }
  for (std::size_t d = kDigits; d < kWords; ++d) out[d] = 0;
}

void store(u64* out, const u64* v, const u64* n) {
  u64 t[kLimbs] = {};
  u128 acc = 0;
  int bits = 0;
  std::size_t w = 0;
  for (std::size_t d = 0; d < kDigits; ++d) {
    acc |= static_cast<u128>(v[d]) << bits;
    bits += 52;
    if (bits >= 64 && w < kLimbs) {
      t[w++] = static_cast<u64>(acc);
      acc >>= 64;
      bits -= 64;
    }
  }
  const u64 top = static_cast<u64>(acc);  // bit 1024 of v < 2n
  u64 d[kLimbs];
  u64 borrow = 0;
  for (std::size_t j = 0; j < kLimbs; ++j) {
    u64 diff;
    const bool b1 = __builtin_sub_overflow(t[j], n[j], &diff);
    const bool b2 = __builtin_sub_overflow(diff, borrow, &diff);
    d[j] = diff;
    borrow = static_cast<u64>(b1 || b2);
  }
  const u64 keep = 0 - (borrow & (top ^ 1));  // v < n
  for (std::size_t j = 0; j < kLimbs; ++j) out[j] = (t[j] & keep) | (d[j] & ~keep);
}

SGK_IFMA void mul(u64* out, const u64* a, const u64* b, const u64* n, u64 k0) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i a0 = load3(a, 0);
  const __m512i a1 = load3(a, 1);
  const __m512i a2 = load3(a, 2);
  const __m512i n0 = load3(n, 0);
  const __m512i n1 = load3(n, 1);
  const __m512i n2 = load3(n, 2);
  // a and n moved down one digit: a row's low halves land one digit below
  // its high halves.
  const __m512i ad0 = _mm512_alignr_epi64(a1, a0, 1);
  const __m512i ad1 = _mm512_alignr_epi64(a2, a1, 1);
  const __m512i ad2 = _mm512_alignr_epi64(zero, a2, 1);
  const __m512i nd0 = _mm512_alignr_epi64(n1, n0, 1);
  const __m512i nd1 = _mm512_alignr_epi64(n2, n1, 1);
  const __m512i nd2 = _mm512_alignr_epi64(zero, n2, 1);
  const u64 a_0 = a[0];
  const u64 a_1 = a[1];
  const u64 n_0 = n[0];
  const u64 n_1 = n[1];
  const u64 a0k0 = a_0 * k0;
  // The accumulator t, one 64-bit lane per digit. Its digit 0 lives in r0;
  // the lane's copy lacks the carry into it and is never read.
  __m512i t0 = zero;
  __m512i t1 = zero;
  __m512i t2 = zero;
  u64 r0 = 0;
  for (std::size_t i = 0; i < kDigits; ++i) {
    const u64 bi = b[i];
    const u64 t_1 = static_cast<u64>(_mm_extract_epi64(_mm512_castsi512_si128(t0), 1));
    const u128 ab = static_cast<u128>(a_0) * bi;
    // Digit 0 of t + b_i * a + m * n is a multiple of 2^52 for this m; its
    // quotient, the carry into digit 1, is s's plus one unless s's low
    // 52 bits (which m * n_0 then completes to 2^52) are zero.
    const u64 m = (r0 * k0 + bi * a0k0) & kMask52;
    const u64 s = r0 + (static_cast<u64>(ab) & kMask52);
    const u64 carry = (s >> 52) + (((s & kMask52) + kMask52) >> 52);
    const __m512i bb = _mm512_set1_epi64(static_cast<long long>(bi));
    const __m512i mm = _mm512_set1_epi64(static_cast<long long>(m));
    // t moves down one digit and takes the row: low halves of b_i * a and
    // m * n from the moved operands, high halves from the others.
    const __m512i x0 = _mm512_add_epi64(_mm512_madd52lo_epu64(zero, ad0, bb),
                                        _mm512_madd52hi_epu64(zero, a0, bb));
    const __m512i x1 = _mm512_add_epi64(_mm512_madd52lo_epu64(zero, ad1, bb),
                                        _mm512_madd52hi_epu64(zero, a1, bb));
    const __m512i x2 = _mm512_add_epi64(_mm512_madd52lo_epu64(zero, ad2, bb),
                                        _mm512_madd52hi_epu64(zero, a2, bb));
    const __m512i y0 = _mm512_add_epi64(_mm512_madd52lo_epu64(zero, nd0, mm),
                                        _mm512_madd52hi_epu64(zero, n0, mm));
    const __m512i y1 = _mm512_add_epi64(_mm512_madd52lo_epu64(zero, nd1, mm),
                                        _mm512_madd52hi_epu64(zero, n1, mm));
    const __m512i y2 = _mm512_add_epi64(_mm512_madd52lo_epu64(zero, nd2, mm),
                                        _mm512_madd52hi_epu64(zero, n2, mm));
    t0 = _mm512_add_epi64(_mm512_add_epi64(_mm512_alignr_epi64(t1, t0, 1), x0), y0);
    t1 = _mm512_add_epi64(_mm512_add_epi64(_mm512_alignr_epi64(t2, t1, 1), x1), y1);
    t2 = _mm512_add_epi64(_mm512_add_epi64(_mm512_alignr_epi64(zero, t2, 1), x2), y2);
    // The new digit 0 in scalar: the old digit 1 and the row's terms at
    // digit 0 (the lane's sum), plus the carry.
    r0 = t_1 + ((a_1 * bi) & kMask52) + static_cast<u64>(ab >> 52) + ((n_1 * m) & kMask52) +
         static_cast<u64>((static_cast<u128>(n_0) * m) >> 52) + carry;
  }
  t0 = _mm512_mask_set1_epi64(t0, 1, static_cast<long long>(r0));

  // One carry pass: every lane keeps its low 52 bits and takes the bits
  // above 52 of the lane below. Each lane is then below 2^52 + 2^8.
  const __m512i mask52 = _mm512_set1_epi64(static_cast<long long>(kMask52));
  const __m512i c0 = _mm512_srli_epi64(t0, 52);
  const __m512i c1 = _mm512_srli_epi64(t1, 52);
  const __m512i c2 = _mm512_srli_epi64(t2, 52);
  t0 = _mm512_add_epi64(_mm512_and_si512(t0, mask52), _mm512_alignr_epi64(c0, zero, 7));
  t1 = _mm512_add_epi64(_mm512_and_si512(t1, mask52), _mm512_alignr_epi64(c1, c0, 7));
  t2 = _mm512_add_epi64(_mm512_and_si512(t2, mask52), _mm512_alignr_epi64(c2, c1, 7));
  // The 0/1 carries left: digit j takes one iff bit j of ((G << 1) + P) xor
  // P is set, for G the digits at or above 2^52 and P those equal to
  // 2^52 - 1 (a carry into a P digit passes through it).
  const u64 g = static_cast<u64>(_mm512_cmpgt_epu64_mask(t0, mask52)) |
                static_cast<u64>(_mm512_cmpgt_epu64_mask(t1, mask52)) << 8 |
                static_cast<u64>(_mm512_cmpgt_epu64_mask(t2, mask52)) << 16;
  const u64 p = static_cast<u64>(_mm512_cmpeq_epu64_mask(t0, mask52)) |
                static_cast<u64>(_mm512_cmpeq_epu64_mask(t1, mask52)) << 8 |
                static_cast<u64>(_mm512_cmpeq_epu64_mask(t2, mask52)) << 16;
  const u64 c = ((g << 1) + p) ^ p;
  const __m512i one = _mm512_set1_epi64(1);
  t0 = _mm512_mask_add_epi64(t0, static_cast<__mmask8>(c), t0, one);
  t1 = _mm512_mask_add_epi64(t1, static_cast<__mmask8>(c >> 8), t1, one);
  t2 = _mm512_mask_add_epi64(t2, static_cast<__mmask8>(c >> 16), t2, one);
  _mm512_storeu_si512(out, _mm512_and_si512(t0, mask52));
  _mm512_storeu_si512(out + 8, _mm512_and_si512(t1, mask52));
  _mm512_storeu_si512(out + 16, _mm512_and_si512(t2, mask52));
}

SGK_IFMA void select(u64* out, const u64* table, std::size_t stride, u64 index) {
  __m512i s0 = _mm512_setzero_si512();
  __m512i s1 = s0;
  __m512i s2 = s0;
  for (std::size_t i = 0; i < kEntries; ++i) {
    const __m512i mask = _mm512_set1_epi64(static_cast<long long>(eq_mask(i, index)));
    const u64* entry = table + i * stride;
    // s |= entry & mask
    s0 = _mm512_ternarylogic_epi64(s0, load3(entry, 0), mask, 0xf8);
    s1 = _mm512_ternarylogic_epi64(s1, load3(entry, 1), mask, 0xf8);
    s2 = _mm512_ternarylogic_epi64(s2, load3(entry, 2), mask, 0xf8);
  }
  _mm512_storeu_si512(out, s0);
  _mm512_storeu_si512(out + 8, s1);
  _mm512_storeu_si512(out + 16, s2);
}

}  // namespace sgk::ifma

#pragma GCC diagnostic pop

#else

namespace sgk::ifma {
bool selected() { return false; }
}  // namespace sgk::ifma

#endif
