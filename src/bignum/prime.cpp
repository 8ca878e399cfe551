#include "bignum/prime.h"

#include <array>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "util/check.h"

namespace sgk {

namespace {
// Small primes for trial division; enough to reject the vast majority of
// candidates before Miller–Rabin.
constexpr std::array<std::uint32_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

std::uint64_t mod_small(const BigInt& n, std::uint64_t m) {
  std::uint64_t r = 0;
  const auto& limbs = n.limbs();
  for (std::size_t i = limbs.size(); i-- > 0;) {
    unsigned __int128 cur = (static_cast<unsigned __int128>(r) << 64) | limbs[i];
    r = static_cast<std::uint64_t>(cur % m);
  }
  return r;
}
}  // namespace

bool is_probable_prime(const BigInt& n, RandomSource& rng, int rounds) {
  if (n < BigInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (n == BigInt(p)) return true;
    if (mod_small(n, p) == 0) return false;
  }
  // n is odd and > 251 here: write n-1 = d * 2^s.
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }

  MontgomeryCtx ctx(n);
  const BigInt two(2);
  for (int round = 0; round < rounds; ++round) {
    // Base in [2, n-2].
    BigInt a = mod_add(BigInt::random_below(n - BigInt(3), rng), two, n);
    BigInt x = ctx.exp(a, d);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < s; ++i) {
      x = ctx.mul(x, x);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigInt generate_prime(std::size_t bits, RandomSource& rng) {
  SGK_CHECK(bits >= 8);
  for (;;) {
    BigInt candidate = BigInt::random_bits(bits, rng);
    if (!candidate.is_odd()) candidate = candidate + BigInt(1);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

SchnorrGroup generate_schnorr_group(std::size_t p_bits, std::size_t q_bits,
                                    RandomSource& rng) {
  SGK_CHECK(q_bits + 16 <= p_bits);
  const BigInt q = generate_prime(q_bits, rng);
  const std::size_t k_bits = p_bits - q_bits;
  BigInt p;
  for (;;) {
    BigInt k = BigInt::random_bits(k_bits, rng);
    if (k.is_odd()) k = k + BigInt(1);  // even k keeps p odd
    p = q * k + BigInt(1);
    if (p.bit_length() != p_bits) continue;
    if (is_probable_prime(p, rng)) break;
  }
  const BigInt k = (p - BigInt(1)) / q;
  const MontgomeryCtx ctx(p);
  BigInt g;
  for (;;) {
    BigInt h = mod_add(BigInt::random_below(p - BigInt(3), rng), BigInt(2), p);
    g = ctx.exp(h, k);
    if (g != BigInt(1)) break;
  }
  return {p, q, g};
}

}  // namespace sgk
