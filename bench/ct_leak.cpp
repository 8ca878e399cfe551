// Report-only timing-leak check of the constant-time exponentiation path
// and of the modular inverse, after Reparaz, Balasch and Verbauwhede, "Dude,
// is my code constant time?" (DATE 2017).
//
// Each row interleaves operations on two input classes in a DRBG-chosen
// order and times them one by one. A Welch t-test compares the two classes
// after cropping the pooled samples at their 90th percentile (preemption
// spikes). |t| > 4.5 is read as a leak, as in the paper.
//
// Exponent rows fix the base and compare a fixed exponent (one set bit at
// the top: a single non-zero window) with uniformly random exponents of the
// same length. They check the secret path at K = 8 (DH-512) and K = 16
// (DH-1024), both with a random base (fixed 4-bit windows) and with the
// generator g on a context that holds it as fixed base (the Lim-Lee comb;
// its table is built before timing starts). An all-ones exponent, whose
// every window selects the table's last entry, is compared with random
// exponents at K = 8 and K = 16: a scan that stopped at the selected entry
// would be slowest on it. One more row runs the RSA-CRT-half shape, a
// 512-bit secret exponent on a 512-bit modulus (K = 8, where squarings are
// nearly all the work): the top bit alone and all ones in turn against
// random 512-bit exponents. The public sliding-window path on the same DH-512
// modulus is run as a control that must show a leak: it does one multiply
// per non-zero window, so the fixed class is much faster.
//
// Base rows fix the exponent and vary the base, and with it every value the
// squarings work on: a fixed base against random bases, with a 512-bit
// exponent on a 512-bit modulus (the shape of an RSA-CRT half, K = 8) and
// with a 160-bit exponent at K = 16; and the edge bases 0, 1 and n - 1 in
// turn against random bases.
//
// Inverse rows time mod_inverse (safegcd) of a fixed input against random
// inputs below the 160-bit subgroup order q (DhGroup::inverse_q's shape) and
// the DH-512 and DH-1024 primes. A run always exits 0 (report only); a bad
// argument prints usage and exits 2.
// Its header names the kernels the K = 8 and K = 16 rows ran: at K = 16 the
// AVX-512 IFMA routines where the CPU has AVX512F/IFMA/VL, at both the
// MULX/ADCX/ADOX routines where it has BMI2 and ADX, else the portable one.
//
// Usage: ct_leak [--samples N]   (N >= 2 per class and row; default 5000)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "harness/bench_io.h"
#include "obs/wallclock.h"

namespace sgk {
namespace {

constexpr double kThreshold = 4.5;

struct Moments {
  double n = 0;
  double mean = 0;
  double m2 = 0;  // sum of squared deviations (Welford)

  void add(double x) {
    n += 1;
    const double delta = x - mean;
    mean += delta / n;
    m2 += delta * (x - mean);
  }
  double variance() const { return n > 1 ? m2 / (n - 1) : 0; }
};

double welch_t(const Moments& a, const Moments& b) {
  const double se = std::sqrt(a.variance() / a.n + b.variance() / b.n);
  return se > 0 ? (a.mean - b.mean) / se : 0;
}

// One timed operation's operands: base ^ e mod the context's modulus, or
// base^{-1} mod e for an inverse row.
struct Input {
  BigInt base;
  BigInt e;
};

// Times run(input) on `samples` inputs of each class; draw(c) returns an
// input of class c (0: the fixed class) and is called outside the timed
// region. Every row's draw takes a random operand in both classes and the
// fixed class discards it, so the allocator state the timed call starts from
// does not depend on the class.
template <typename Draw, typename Run>
void check(const char* name, std::size_t samples, Drbg& rng, Draw draw, Run run) {
  run(draw(0));  // warm-up; builds a comb table outside the timed samples
  std::vector<double> times[2];
  while (times[0].size() < samples || times[1].size() < samples) {
    const std::size_t cls = rng.next_u64(2);
    if (times[cls].size() == samples) continue;
    const Input in = draw(cls);
    const std::uint64_t t0 = obs::wall_now_ns();
    const BigInt r = run(in);
    const std::uint64_t t1 = obs::wall_now_ns();
    times[cls].push_back(static_cast<double>(t1 - t0));
  }

  std::vector<double> pooled(times[0]);
  pooled.insert(pooled.end(), times[1].begin(), times[1].end());
  const auto p90 = pooled.begin() + static_cast<std::ptrdiff_t>(pooled.size() * 9 / 10);
  std::nth_element(pooled.begin(), p90, pooled.end());
  const double crop = *p90;
  Moments m[2];
  for (std::size_t c = 0; c < 2; ++c)
    for (double t : times[c])
      if (t <= crop) m[c].add(t);

  const double t = std::fabs(welch_t(m[0], m[1]));
  std::printf("%-48s fixed n=%-6.0f mean=%9.0f ns  random n=%-6.0f mean=%9.0f ns"
              "  |t|=%7.2f  %s\n",
              name, m[0].n, m[0].mean, m[1].n, m[1].mean, t,
              t > kThreshold ? "LEAK" : "no leak detected");
}

// Row timing ctx.exp(base, e).
template <typename Draw>
void check_exp(const char* name, const MontgomeryCtx& ctx, std::size_t samples,
               Drbg& rng, Draw draw) {
  check(name, samples, rng, draw,
        [&ctx](const Input& in) { return ctx.exp(in.base, in.e); });
}

// Exponent row: base fixed, exponents from `fixed_class` (cycled, all of
// one length) against random exponents of that length.
void check_exponents(const char* name, const MontgomeryCtx& ctx, const BigInt& base,
                     const std::vector<BigInt>& fixed_class, std::size_t samples,
                     Drbg& rng) {
  const std::size_t ebits = fixed_class.front().bit_length();
  std::size_t next = 0;
  check_exp(name, ctx, samples, rng, [&](std::size_t cls) {
    BigInt drawn = BigInt::random_bits(ebits, rng);
    if (cls == 1) return Input{base, std::move(drawn)};
    return Input{base, fixed_class[next++ % fixed_class.size()]};
  });
}

// Base row: exponent fixed, bases from `fixed_class` (cycled) against random
// bases below the modulus.
void check_bases(const char* name, const MontgomeryCtx& ctx,
                 const std::vector<BigInt>& fixed_class, const BigInt& e,
                 std::size_t samples, Drbg& rng) {
  std::size_t next = 0;
  check_exp(name, ctx, samples, rng, [&](std::size_t cls) {
    BigInt drawn = BigInt::random_below(ctx.modulus(), rng);
    if (cls == 1) return Input{std::move(drawn), e};
    return Input{fixed_class[next++ % fixed_class.size()], e};
  });
}

// Inverse row: mod_inverse of a fixed input against random inputs in
// [1, m). Drawing in the random class only read |t| up to 5.6 at 512 bits,
// where the symmetric draw stayed below 2.
void check_inverse(const char* name, const BigInt& m, std::size_t samples, Drbg& rng) {
  const BigInt fixed = BigInt::random_below(m - BigInt(1), rng) + BigInt(1);
  check(
      name, samples, rng,
      [&](std::size_t cls) {
        BigInt drawn = BigInt::random_below(m - BigInt(1), rng) + BigInt(1);
        return Input{cls == 0 ? fixed : std::move(drawn), m};
      },
      [](const Input& in) { return mod_inverse(in.base, in.e); });
}

}  // namespace
}  // namespace sgk

int main(int argc, char** argv) {
  std::size_t samples = 5000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--samples") != 0 || i + 1 == argc ||
        !sgk::parse_count(argv[++i], 2, samples)) {
      std::fprintf(stderr, "usage: ct_leak [--samples N]   (N >= 2)\n");
      return 2;
    }
  }

  using sgk::DhBits;
  const sgk::DhGroup& g512 = sgk::dh_group(DhBits::k512);
  const sgk::DhGroup& g1024 = sgk::dh_group(DhBits::k1024);
  const std::size_t qbits = g512.q().bit_length();
  sgk::Drbg rng(1, "ct_leak");
  std::printf("Welch t-test, fixed vs random class; leak if |t| > %.1f\n",
              sgk::kThreshold);
  std::printf("K=8 rows run the %s kernel, K=16 rows the %s kernel\n",
              sgk::kernel_name(sgk::montgomery_kernel(8)),
              sgk::kernel_name(sgk::montgomery_kernel(16)));
  auto random_base = [&rng](const sgk::BigInt& p) {
    return sgk::BigInt::random_below(p, rng);
  };
  // The fixed exponents: the top bit alone, and every bit set.
  const sgk::BigInt top = sgk::BigInt(1) << (qbits - 1);
  const sgk::BigInt ones = (sgk::BigInt(1) << qbits) - sgk::BigInt(1);
  const std::size_t wide = g512.p().bit_length();
  const sgk::MontgomeryCtx crt(g512.p(), wide);  // RSA-CRT-half shape
  std::printf("Exponent rows: fixed vs random exponents (%zu bits unless named)\n", qbits);
  sgk::check_exponents("DH-512 secret path (K=8)", sgk::MontgomeryCtx(g512.p(), qbits),
                       random_base(g512.p()), {top}, samples, rng);
  sgk::check_exponents("DH-1024 secret path (K=16)",
                       sgk::MontgomeryCtx(g1024.p(), qbits),
                       random_base(g1024.p()), {top}, samples, rng);
  sgk::check_exponents("DH-512 fixed-base comb, g (K=8)",
                       sgk::MontgomeryCtx(g512.p(), qbits, g512.g()), g512.g(),
                       {top}, samples, rng);
  sgk::check_exponents("DH-1024 fixed-base comb, g (K=16)",
                       sgk::MontgomeryCtx(g1024.p(), qbits, g1024.g()), g1024.g(),
                       {top}, samples, rng);
  sgk::check_exponents("DH-512 all-ones exponent (K=8)", sgk::MontgomeryCtx(g512.p(), qbits),
                       random_base(g512.p()), {ones}, samples, rng);
  sgk::check_exponents("DH-1024 all-ones exponent (K=16)",
                       sgk::MontgomeryCtx(g1024.p(), qbits), random_base(g1024.p()), {ones},
                       samples, rng);
  sgk::check_exponents("512-bit exponent, top bit/all ones (K=8)", crt,
                       random_base(g512.p()),
                       {sgk::BigInt(1) << (wide - 1), (sgk::BigInt(1) << wide) - sgk::BigInt(1)},
                       samples, rng);
  sgk::check_exponents("DH-512 public path (control, should leak)",
                       sgk::MontgomeryCtx(g512.p()), random_base(g512.p()), {top},
                       samples, rng);

  std::printf("Base rows: fixed exponent, fixed or edge vs random bases\n");
  const sgk::MontgomeryCtx dh1024(g1024.p(), qbits);
  const sgk::BigInt e_wide = sgk::BigInt::random_bits(wide, rng);
  const sgk::BigInt e_q = sgk::BigInt::random_bits(qbits, rng);
  auto edges = [](const sgk::BigInt& p) {
    return std::vector<sgk::BigInt>{sgk::BigInt(), sgk::BigInt(1), p - sgk::BigInt(1)};
  };
  sgk::check_bases("512-bit exponent, fixed base (K=8)", crt,
                   {random_base(g512.p())}, e_wide, samples, rng);
  sgk::check_bases("DH-1024 160-bit exponent, fixed base (K=16)", dh1024,
                   {random_base(g1024.p())}, e_q, samples, rng);
  sgk::check_bases("512-bit exponent, bases 0/1/n-1 (K=8)", crt, edges(g512.p()),
                   e_wide, samples, rng);
  sgk::check_bases("DH-1024 160-bit exponent, bases 0/1/n-1 (K=16)", dh1024,
                   edges(g1024.p()), e_q, samples, rng);

  std::printf("Inverse rows: fixed vs random inputs\n");
  sgk::check_inverse("mod_inverse, 160-bit modulus q", g512.q(), samples, rng);
  sgk::check_inverse("mod_inverse, 512-bit modulus", g512.p(), samples, rng);
  sgk::check_inverse("mod_inverse, 1024-bit modulus", g1024.p(), samples, rng);
  return 0;
}
