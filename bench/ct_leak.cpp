// Report-only timing-leak check of the constant-time exponentiation path,
// after Reparaz, Balasch and Verbauwhede, "Dude, is my code constant time?"
// (DATE 2017).
//
// For each context, exponentiations with a fixed exponent (one set bit at
// the top: a single non-zero window) and with uniformly random exponents of
// the same length are interleaved in a DRBG-chosen order and timed one by
// one. A Welch t-test compares the two classes after cropping the pooled
// samples at their 90th percentile (preemption spikes). |t| > 4.5 is read
// as a leak, as in the paper.
//
// The secret path is checked at K = 8 (DH-512) and K = 16 (DH-1024). The
// public sliding-window path on the same DH-512 modulus is run as a control
// that must show a leak: it does one multiply per non-zero window, so the
// fixed class is much faster. The program always exits 0 (report only).
//
// Usage: ct_leak [--samples N]   (N per class and context; default 5000)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bignum/montgomery.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
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

void check(const char* name, const MontgomeryCtx& ctx, std::size_t ebits,
           std::size_t samples, Drbg& rng) {
  const BigInt base = BigInt::random_below(ctx.modulus(), rng);
  const BigInt fixed = BigInt(1) << (ebits - 1);
  std::vector<double> times[2];
  while (times[0].size() < samples || times[1].size() < samples) {
    const std::size_t cls = rng.next_u64(2);
    if (times[cls].size() == samples) continue;
    const BigInt e = cls == 0 ? fixed : BigInt::random_bits(ebits, rng);
    const std::uint64_t t0 = obs::wall_now_ns();
    const BigInt r = ctx.exp(base, e);
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
  std::printf("%-44s fixed n=%-6.0f mean=%9.0f ns  random n=%-6.0f mean=%9.0f ns"
              "  |t|=%7.2f  %s\n",
              name, m[0].n, m[0].mean, m[1].n, m[1].mean, t,
              t > kThreshold ? "LEAK" : "no leak detected");
}

}  // namespace
}  // namespace sgk

int main(int argc, char** argv) {
  std::size_t samples = 5000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: ct_leak [--samples N]\n");
      return 2;
    }
  }
  if (samples < 2) samples = 2;

  using sgk::DhBits;
  const sgk::DhGroup& g512 = sgk::dh_group(DhBits::k512);
  const sgk::DhGroup& g1024 = sgk::dh_group(DhBits::k1024);
  const std::size_t qbits = g512.q().bit_length();
  sgk::Drbg rng(1, "ct_leak");
  std::printf("Welch t-test, fixed vs random %zu-bit exponents; leak if |t| > %.1f\n",
              qbits, sgk::kThreshold);
  sgk::check("DH-512 secret path (K=8)", sgk::MontgomeryCtx(g512.p(), qbits),
             qbits, samples, rng);
  sgk::check("DH-1024 secret path (K=16)", sgk::MontgomeryCtx(g1024.p(), qbits),
             qbits, samples, rng);
  sgk::check("DH-512 public path (control, should leak)",
             sgk::MontgomeryCtx(g512.p()), qbits, samples, rng);
  return 0;
}
