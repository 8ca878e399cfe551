// Differential oracle for the Montgomery kernel: every exponentiation,
// product, RSA-CRT signature and inverse mod q is checked against plain
// square-and-multiply (or extended Euclid) over BigInt's schoolbook
// multiply and Knuth division, on DRBG-seeded and edge inputs. Every check
// that runs 8- or 16-limb moduli runs on every kernel this CPU has: the
// AVX-512 IFMA routines (16 limbs, where the CPU has AVX512F/IFMA/VL), the
// MULX/ADCX/ADOX routines (where it has BMI2 and ADX), and the portable
// kernel.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "bignum/montgomery_adx.h"
#include "bignum/montgomery_ifma.h"
#include "core/crypto_context.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace sgk {
namespace {

BigInt oracle_exp(const BigInt& base, const BigInt& e, const BigInt& n) {
  const BigInt b = base % n;
  BigInt acc(1);
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = acc * acc % n;
    if (e.bit(i)) acc = acc * b % n;
  }
  return acc % n;
}

BigInt all_ones(std::size_t bits) { return (BigInt(1) << bits) - BigInt(1); }

constexpr MontgomeryKernel kAllKernels[] = {
    MontgomeryKernel::kIfma, MontgomeryKernel::kAdx, MontgomeryKernel::kPortable};

/// The kernels that serve `limbs`-limb moduli on this CPU, fastest first:
/// the IFMA routines (16 limbs), the MULX/ADCX/ADOX routines (8 and 16
/// limbs), then the portable kernel, the reference.
std::vector<MontgomeryKernel> kernels_serving(std::size_t limbs) {
  std::vector<MontgomeryKernel> ks;
  for (MontgomeryKernel kernel : kAllKernels) {
    const KernelCapForTesting cap(kernel);
    if (montgomery_kernel(limbs) == kernel) ks.push_back(kernel);
  }
  return ks;
}

/// Runs `check` on every kernel that serves `limbs`-limb moduli on this CPU.
/// `check` draws its inputs from its own seeds, so every pass sees the same
/// ones.
void for_each_kernel(std::size_t limbs, const std::function<void()>& check) {
  for (MontgomeryKernel kernel : kernels_serving(limbs)) {
    const KernelCapForTesting cap(kernel);
    SCOPED_TRACE(std::string("kernel: ") + kernel_name(kernel));
    check();
  }
}

/// As above, for checks that run both 8- and 16-limb moduli: every kernel
/// that serves 16 limbs (8-limb moduli run the best one below it).
void for_each_kernel(const std::function<void()>& check) { for_each_kernel(16, check); }

/// Odd modulus of exactly 64 * limbs bits.
BigInt random_modulus(std::size_t limbs, Drbg& rng) {
  BigInt m = BigInt::random_bits(64 * limbs, rng);
  return m.is_odd() ? m : m + BigInt(1);
}

/// Secret widths exercised at a limb count: the full modulus width, and
/// |q| = 160 bits where the modulus is wider.
std::vector<std::size_t> secret_widths(std::size_t limbs) {
  std::vector<std::size_t> widths{64 * limbs};
  if (64 * limbs > 160) widths.push_back(160);
  return widths;
}

/// An exponent of `width` bits (a multiple of 4) whose 4-bit windows take
/// every value, so that every entry of the secret path's table is
/// selected: 15 in the top window, 0 in the lowest, and w mod 16 in window
/// w (counted from the bottom) between them.
BigInt every_window_value(std::size_t width) {
  const std::size_t windows = width / 4;
  BigInt e;
  for (std::size_t w = windows; w-- > 0;) {
    const std::uint64_t v = w == windows - 1 ? 15 : w % 16;
    e = (e << 4) + BigInt(v);
  }
  return e;
}

class MontgomeryOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MontgomeryOracle, PublicContextMatchesSquareAndMultiply) {
  const std::size_t limbs = GetParam();
  for_each_kernel(limbs, [&] {
    Drbg rng(limbs, "oracle-public");
    const BigInt n = random_modulus(limbs, rng);
    const MontgomeryCtx ctx(n);
    for (std::size_t ebits : {1u, 2u, 3u, 23u, 24u, 79u, 80u, 239u, 240u, 512u}) {
      const BigInt base = BigInt::random_below(n, rng);
      const BigInt e = BigInt::random_bits(ebits, rng);
      EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n)) << "ebits " << ebits;
    }
  });
}

TEST_P(MontgomeryOracle, SecretContextMatchesSquareAndMultiply) {
  const std::size_t limbs = GetParam();
  for_each_kernel(limbs, [&] {
    Drbg rng(limbs, "oracle-secret");
    const BigInt n = random_modulus(limbs, rng);
    for (std::size_t width : secret_widths(limbs)) {
      const MontgomeryCtx ctx(n, width);
      const BigInt every_entry = every_window_value(width);
      for (int i = 0; i < 4; ++i) {
        const BigInt base = BigInt::random_below(n, rng);
        // Full-width, shorter secret-path, and public-class (< 64 bits).
        for (std::size_t ebits : {width, width - 7, std::size_t{64}, std::size_t{63}}) {
          const BigInt e = BigInt::random_bits(ebits, rng);
          EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n))
              << "width " << width << " ebits " << ebits;
        }
        EXPECT_EQ(ctx.exp(base, every_entry), oracle_exp(base, every_entry, n))
            << "width " << width << " every window value";
      }
    }
  });
}

TEST_P(MontgomeryOracle, EdgeBasesAndExponents) {
  const std::size_t limbs = GetParam();
  for_each_kernel(limbs, [&] {
    Drbg rng(limbs, "oracle-edge");
    const BigInt n = random_modulus(limbs, rng);
    const std::size_t width = 64 * limbs;
    const std::vector<BigInt> bases = {
        BigInt(),                      // 0
        BigInt(1),                     //
        n - BigInt(1),                 // -1
        n,                             // = n, reduces to 0
        n + BigInt(5),                 // >= n
        n * BigInt(3) + BigInt(2),     // several multiples of n above
        all_ones(width),               // every limb all ones (>= n)
        all_ones(width - 64),          // all-ones limbs below n
        BigInt(1) << (width + 7),      // wider than the modulus
    };
    const std::vector<BigInt> exps = {
        BigInt(),
        BigInt(1),
        BigInt(2),
        BigInt(3),
        all_ones(64),
        all_ones(width),
        BigInt(1) << (width - 1),
        n - BigInt(1),
    };
    const MontgomeryCtx pub(n);
    const MontgomeryCtx sec(n, width);
    for (const BigInt& b : bases) {
      for (const BigInt& e : exps) {
        const BigInt want = oracle_exp(b, e, n);
        EXPECT_EQ(pub.exp(b, e), want) << b.to_hex() << " ^ " << e.to_hex();
        EXPECT_EQ(sec.exp(b, e), want) << b.to_hex() << " ^ " << e.to_hex();
      }
    }
  });
}

TEST_P(MontgomeryOracle, ExponentsWithZeroTopWindow) {
  const std::size_t limbs = GetParam();
  for_each_kernel(limbs, [&] {
    Drbg rng(limbs, "oracle-window");
    const BigInt n = random_modulus(limbs, rng);
    for (std::size_t width : secret_widths(limbs)) {
      const MontgomeryCtx ctx(n, width);
      const BigInt base = BigInt::random_below(n, rng);
      // The padded top 4-bit window (and more) is zero; bit 64 keeps the
      // exponent on the secret path.
      for (std::size_t ebits : {width - 4, width - 5, std::size_t{65}}) {
        if (ebits < 64) continue;
        const BigInt e = BigInt::random_bits(ebits, rng);
        EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n)) << "ebits " << ebits;
      }
      // Zero windows in the middle and at the bottom.
      const BigInt sparse = (BigInt(1) << (width - 1)) + (BigInt(1) << 64);
      EXPECT_EQ(ctx.exp(base, sparse), oracle_exp(base, sparse, n));
    }
  });
}

TEST_P(MontgomeryOracle, ExponentsAtAndAboveDeclaredWidth) {
  const std::size_t limbs = GetParam();
  for_each_kernel(limbs, [&] {
    Drbg rng(limbs, "oracle-width");
    const BigInt n = random_modulus(limbs, rng);
    for (std::size_t width : secret_widths(limbs)) {
      const MontgomeryCtx ctx(n, width);
      const BigInt base = BigInt::random_below(n, rng);
      for (std::size_t ebits : {width, width + 1, width + 64, 2 * width + 3}) {
        const BigInt e = BigInt::random_bits(ebits, rng);
        EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n)) << "ebits " << ebits;
      }
    }
  });
}

TEST_P(MontgomeryOracle, MulMatchesSchoolbook) {
  const std::size_t limbs = GetParam();
  for_each_kernel(limbs, [&] {
    Drbg rng(limbs, "oracle-mul");
    const BigInt n = random_modulus(limbs, rng);
    const MontgomeryCtx ctx(n);
    // n and all_ones(|n|) are unreduced operands of n's width, which the
    // kernel takes as they are; 3n + 5 is wider than n and is divided first.
    const std::vector<BigInt> edges = {BigInt(), BigInt(1), n - BigInt(1),
                                       all_ones(64 * limbs - 1), n,
                                       all_ones(n.bit_length()),
                                       n * BigInt(3) + BigInt(5)};
    for (const BigInt& a : edges)
      for (const BigInt& b : edges) EXPECT_EQ(ctx.mul(a, b), a * b % n);
    for (int i = 0; i < 8; ++i) {
      const BigInt a = BigInt::random_below(n, rng);
      const BigInt b = BigInt::random_below(n, rng);
      EXPECT_EQ(ctx.mul(a, b), a * b % n);
    }
  });
}

// ---- squaring --------------------------------------------------------------

/// Moduli of `limbs` limbs that push the squaring to its edges: random with
/// the top bit set, every bit set, and just above 2^(64 * limbs - 1). Near
/// the top, operands have all-ones limbs, so doubled cross sums carry out of
/// their low 128 bits; just above 2^(64k-1), the unreduced result often
/// exceeds n, so the final subtraction fires.
std::vector<BigInt> squaring_moduli(std::size_t limbs, Drbg& rng) {
  return {random_modulus(limbs, rng), all_ones(64 * limbs),
          (BigInt(1) << (64 * limbs - 1)) + BigInt::random_bits(32, rng) * BigInt(2) +
              BigInt(1)};
}

/// Operands for squaring chains below n: 0, 1, -1, -2 and a random one.
std::vector<BigInt> squaring_operands(const BigInt& n, Drbg& rng) {
  return {BigInt(), BigInt(1), n - BigInt(1), n - BigInt(2), BigInt::random_below(n, rng)};
}

/// a^(2^t) mod n for t = 0 .. steps, by repeated schoolbook squaring.
std::vector<BigInt> oracle_squares(const BigInt& a, const BigInt& n, std::size_t steps) {
  std::vector<BigInt> sq{a % n};
  for (std::size_t t = 0; t < steps; ++t) sq.push_back(sq.back() * sq.back() % n);
  return sq;
}

// Exponents 2^t are pure squaring chains: the public path squares t times
// after its one-bit window, and the secret path squares four times per
// window (its multiplies all pick the table's entry 1).
TEST_P(MontgomeryOracle, SquaringChainsMatchSchoolbook) {
  const std::size_t limbs = GetParam();
  for_each_kernel(limbs, [&] {
    Drbg rng(limbs, "oracle-square");
    const std::size_t width = 64 * limbs;
    // Secret-path chains t = 63 .. width - 1 (exponents of 64 to width bits):
    // every t up to 130, then every 13th (odd, so the set bit still moves
    // through each window position) to bound the run time, and the last one.
    std::vector<std::size_t> secret_ts;
    for (std::size_t t = 63; t < width; t += t < 130 ? 1 : 13) secret_ts.push_back(t);
    if (secret_ts.back() != width - 1) secret_ts.push_back(width - 1);
    for (const BigInt& n : squaring_moduli(limbs, rng)) {
      const MontgomeryCtx pub(n);
      const MontgomeryCtx sec(n, width);
      for (const BigInt& a : squaring_operands(n, rng)) {
        const std::vector<BigInt> want = oracle_squares(a, n, width + 64);
        for (std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{64},
                              width, width + 64}) {
          EXPECT_EQ(pub.exp(a, BigInt(1) << t), want[t])
              << "public n " << n.to_hex() << " a " << a.to_hex() << " t " << t;
        }
        for (std::size_t t : secret_ts) {
          EXPECT_EQ(sec.exp(a, BigInt(1) << t), want[t])
              << "secret n " << n.to_hex() << " a " << a.to_hex() << " t " << t;
        }
      }
    }
  });
}

// The squaring routine against the product: 1000 chained squarings (exp by
// 2^1000) equal 1000 chained products x * x (MontgomeryCtx::mul).
TEST_P(MontgomeryOracle, SquaringChainEqualsProductChain) {
  const std::size_t limbs = GetParam();
  for_each_kernel(limbs, [&] {
    Drbg rng(limbs, "oracle-square-mul");
    constexpr std::size_t kSteps = 1000;
    for (const BigInt& n : squaring_moduli(limbs, rng)) {
      // 17 limbs is wide enough to take 2^1000 on the secret path.
      const MontgomeryCtx pub(n);
      const MontgomeryCtx sec(n, 64 * limbs);
      for (const BigInt& a : {n - BigInt(2), BigInt::random_below(n, rng)}) {
        BigInt x = a;
        for (std::size_t i = 0; i < kSteps; ++i) x = pub.mul(x, x);
        const BigInt e = BigInt(1) << kSteps;
        EXPECT_EQ(pub.exp(a, e), x) << "n " << n.to_hex() << " a " << a.to_hex();
        EXPECT_EQ(sec.exp(a, e), x) << "n " << n.to_hex() << " a " << a.to_hex();
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Limbs, MontgomeryOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17));

TEST(MontgomeryOracleBounds, LargestModulusWorksAndWiderThrows) {
  Drbg rng(64, "oracle-bounds");
  const BigInt n = random_modulus(MontgomeryCtx::kMaxLimbs, rng);
  const MontgomeryCtx ctx(n, 160);
  const BigInt base = BigInt::random_below(n, rng);
  const BigInt e = BigInt::random_bits(160, rng);
  EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n));

  const BigInt wide = all_ones(64 * (MontgomeryCtx::kMaxLimbs + 1));
  EXPECT_THROW(MontgomeryCtx{wide}, std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(wide, 160), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(BigInt(101), 8), std::invalid_argument);
}

// ---- fixed-base comb ---------------------------------------------------------

/// Comb block and column lengths for a secret width (4 teeth, 8 tables).
struct CombGeometry {
  std::size_t block;
  std::size_t columns;
};

CombGeometry comb_geometry(std::size_t width) {
  const std::size_t block = (width + 3) / 4;
  return {block, (block + 7) / 8};
}

/// Exponents that stress the comb for a secret width: the edges of the
/// secret path, zero top blocks and columns, one set bit per block, and
/// every table index in every table.
std::vector<BigInt> comb_exponents(std::size_t width, const BigInt& order,
                                   Drbg& rng) {
  const CombGeometry c = comb_geometry(width);
  std::vector<BigInt> es = {
      BigInt(1) << 63,                   // 64 bits: lowest secret-path exponent
      all_ones(64),
      BigInt::random_bits(64, rng),
      BigInt::random_bits(width - 1, rng),
      BigInt::random_bits(width, rng),
      all_ones(width),
      order - BigInt(1),
  };
  // Top block zero, and all but the lowest block zero (still >= 64 bits).
  for (std::size_t bits : {3 * c.block, c.block + 1}) {
    if (bits >= 64 && bits <= width) es.push_back(BigInt::random_bits(bits, rng));
  }
  // One column zero in every block: clear bit (offset) of each block.
  for (std::size_t offset : {std::size_t{0}, c.columns - 1, c.block - 1}) {
    BigInt e = all_ones(width);
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t pos = i * c.block + offset;
      if (pos < width) e = e - (BigInt(1) << pos);
    }
    es.push_back(e);
  }
  // One set bit in each block, at every offset of a block, and a single set
  // bit at every secret-path position (every 7th above 200 bits).
  const std::size_t step = width > 200 ? 7 : 1;
  for (std::size_t offset = 0; offset < c.block; offset += step) {
    BigInt e;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t pos = i * c.block + offset;
      if (pos < width) e = e + (BigInt(1) << pos);
    }
    if (e.bit_length() >= 64) es.push_back(e);
  }
  for (std::size_t pos = 63; pos < width; pos += step) es.push_back(BigInt(1) << pos);
  // Every index 0-15 of every table: exponent r puts index
  // (columns * r + c + j) mod 16 in column c of table j, so ceil(16 /
  // columns) exponents (four at |q| = 160) cover all 16 in each table whose
  // columns all lie inside a block.
  for (std::size_t r = 0; r * c.columns < 16; ++r) {
    BigInt e;
    for (std::size_t j = 0; j < 8; ++j) {
      for (std::size_t col = 0; col < c.columns; ++col) {
        const std::size_t offset = j * c.columns + col;
        if (offset >= c.block) continue;
        const std::size_t index = (c.columns * r + col + j) % 16;
        for (std::size_t tooth = 0; tooth < 4; ++tooth)
          if ((index >> tooth) & 1) e = e + (BigInt(1) << (tooth * c.block + offset));
      }
    }
    if (e.bit_length() >= 64) es.push_back(e);
  }
  return es;
}

TEST(MontgomeryOracleComb, DhGeneratorMatchesSquareAndMultiply) {
  for_each_kernel([&] {
    for (DhBits bits : {DhBits::k512, DhBits::k1024}) {
      const DhGroup& grp = dh_group(bits);
      const std::size_t width = grp.q().bit_length();
      Drbg rng(bits == DhBits::k512 ? 512 : 1024, "oracle-comb");
      std::vector<BigInt> es = comb_exponents(width, grp.q(), rng);
      for (int i = 0; i < 8; ++i) es.push_back(BigInt::random_below(grp.q(), rng));
      for (const BigInt& e : es) {
        const BigInt want = oracle_exp(grp.g(), e, grp.p());
        EXPECT_EQ(grp.exp_g(e), want) << e.to_hex();
        EXPECT_EQ(grp.exp(grp.g(), e), want) << e.to_hex();
      }
    }
  });
}

TEST(MontgomeryOracleComb, DhGeneratorOffTheCombAgrees) {
  for_each_kernel([&] {
    for (DhBits bits : {DhBits::k512, DhBits::k1024}) {
      const DhGroup& grp = dh_group(bits);
      const std::size_t width = grp.q().bit_length();
      Drbg rng(bits == DhBits::k512 ? 512 : 1024, "oracle-comb-off");
      const BigInt unreduced = grp.g() + grp.p();
      // Above the width (public path), below 64 bits (public path), and the
      // unreduced base g + p (window path) at secret widths.
      for (const BigInt& e :
           {BigInt::random_bits(width + 1, rng), BigInt::random_bits(2 * width, rng),
            BigInt::random_bits(63, rng), BigInt(3)}) {
        EXPECT_EQ(grp.exp_g(e), oracle_exp(grp.g(), e, grp.p())) << e.to_hex();
      }
      for (const BigInt& e : {BigInt::random_bits(64, rng), BigInt::random_bits(width, rng),
                              grp.q() - BigInt(1)}) {
        EXPECT_EQ(grp.exp(unreduced, e), oracle_exp(grp.g(), e, grp.p())) << e.to_hex();
      }
    }
  });
}

TEST(MontgomeryOracleComb, FixedBaseOnEveryLimbCountAndWidth) {
  for_each_kernel([&] {
    for (std::size_t limbs : {1u, 2u, 3u, 5u, 8u, 9u, 16u, 17u}) {
      Drbg rng(limbs, "oracle-comb-limbs");
      const BigInt n = random_modulus(limbs, rng);
      const BigInt base = BigInt::random_below(n, rng);
      // Widths that split evenly, unevenly, and into blocks shorter than 8
      // columns.
      for (std::size_t width : {std::size_t{64}, std::size_t{67}, std::size_t{160},
                                std::size_t{161}, 64 * limbs}) {
        if (width > 64 * limbs) continue;
        const MontgomeryCtx ctx(n, width, base);
        for (const BigInt& e : comb_exponents(width, all_ones(width), rng)) {
          EXPECT_EQ(ctx.exp(base, e), oracle_exp(base, e, n))
              << "limbs " << limbs << " width " << width << " e " << e.to_hex();
        }
        // Another base on the same context takes the window path.
        const BigInt other = BigInt::random_below(n, rng);
        const BigInt e = BigInt::random_bits(width, rng);
        EXPECT_EQ(ctx.exp(other, e), oracle_exp(other, e, n));
      }
    }
  });
}

TEST(MontgomeryOracleComb, CopiesShareTheTableAndBadBasesThrow) {
  for_each_kernel([&] {
    const DhGroup& grp = dh_group(DhBits::k512);
    const std::size_t width = grp.q().bit_length();
    const MontgomeryCtx ctx(grp.p(), width, grp.g());
    const MontgomeryCtx copy = ctx;  // before the table exists
    Drbg rng(3, "oracle-comb-copy");
    const BigInt e = BigInt::random_bits(width, rng);
    const BigInt want = oracle_exp(grp.g(), e, grp.p());
    EXPECT_EQ(ctx.exp(grp.g(), e), want);
    EXPECT_EQ(copy.exp(grp.g(), e), want);
    EXPECT_THROW(MontgomeryCtx(grp.p(), width, grp.p()), std::invalid_argument);
    EXPECT_THROW(MontgomeryCtx(grp.p(), width, grp.g() + grp.p()), std::invalid_argument);
  });
}

TEST(MontgomeryOracleComb, FirstGeneratorExpsRaceOnFreshGroup) {
  for_each_kernel([&] {
    for (DhBits bits : {DhBits::k512, DhBits::k1024}) {
      const DhGroup& ref = dh_group(bits);
      const DhGroup grp(ref.p(), ref.q(), ref.g());  // comb table not built yet
      Drbg rng(bits == DhBits::k512 ? 5 : 10, "oracle-comb-race");
      const BigInt e[2] = {BigInt::random_below(ref.q(), rng),
                           BigInt::random_below(ref.q(), rng)};
      BigInt got[2];
      std::thread other([&] { got[1] = grp.exp_g(e[1]); });
      got[0] = grp.exp_g(e[0]);
      other.join();
      for (int i = 0; i < 2; ++i)
        EXPECT_EQ(got[i], oracle_exp(ref.g(), e[i], ref.p())) << i;
    }
  });
}

/// Miller-Rabin on the oracle's square-and-multiply, with the first twelve
/// primes as bases.
bool oracle_probable_prime(const BigInt& n) {
  const BigInt one(1);
  const BigInt n1 = n - one;
  std::size_t s = 0;
  while (!n1.bit(s)) ++s;
  const BigInt d = n1 >> s;
  for (std::uint64_t a : {2u, 3u, 5u, 7u, 11u, 13u, 17u, 19u, 23u, 29u, 31u, 37u}) {
    BigInt x = oracle_exp(BigInt(a), d, n);
    if (x == one || x == n1) continue;
    bool composite = true;
    for (std::size_t r = 1; r < s && composite; ++r) {
      x = x * x % n;
      composite = x != n1;
    }
    if (composite) return false;
  }
  return true;
}

/// An RSA key whose private exponent the test knows, from fixed primes, so
/// that a broken kernel fails the signature check instead of stalling a
/// prime search that runs through the kernel's own Miller-Rabin.
struct KnownRsaKey {
  BigInt n, d, p, q;
};

KnownRsaKey known_rsa_key(std::size_t bits) {
  // Drawn once with generate_prime (p = 2 mod 3, so e = 3 is a valid
  // exponent); the 1024-bit key has q > p.
  const BigInt p = BigInt::from_hex(
      bits == 512 ? "d1e08835db35a4be306d81b9a9cb109c7228bec86bb1f53e7a962f370e70f8a1"
                  : "a483c982b50b3e57199ad397076c1bbc88cb87ba8dee4ff1f126b0f5946a3f2a"
                    "fb7b105fa008a6779da92c925c729c77da31ad614e0b828b45eebfda1a0cf9cd");
  const BigInt q = BigInt::from_hex(
      bits == 512 ? "cc5b19f4f6af556062a75302f97b6d28e8fe178bbba7417344e902e69990c2a9"
                  : "fcf366c1c0f5eedf229ff84e54054f6dc98f9e3f4515850fc7522b2dde9dd53b"
                    "df70b12ffc4d8773504ca03ee8ace7e0697c04eaa396e78a82fedd42a1c2de19");
  const BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
  return {p * q, mod_inverse_euclid(BigInt(3), phi), p, q};
}

TEST(MontgomeryOracleRsa, FixedTestPrimesHoldUnderTheOracle) {
  for (std::size_t bits : {512u, 1024u}) {
    const KnownRsaKey k = known_rsa_key(bits);
    EXPECT_EQ(k.n.bit_length(), bits);
    for (const BigInt* prime : {&k.p, &k.q}) {
      EXPECT_EQ(prime->bit_length(), bits / 2);
      EXPECT_EQ(*prime % BigInt(3), BigInt(2));
      EXPECT_TRUE(oracle_probable_prime(*prime)) << prime->to_hex();
    }
    EXPECT_EQ(BigInt(3) * k.d % ((k.p - BigInt(1)) * (k.q - BigInt(1))), BigInt(1));
  }
  // The oracle Miller-Rabin rejects composites, Carmichael numbers included.
  EXPECT_FALSE(oracle_probable_prime(BigInt(561)));
  EXPECT_FALSE(oracle_probable_prime(known_rsa_key(512).n));
}

TEST(MontgomeryOracleRsa, CrtSignMatchesPlainPrivateExponent) {
  for_each_kernel([&] {
    for (std::size_t bits : {512u, 1024u}) {
      const KnownRsaKey k = known_rsa_key(bits);
      const RsaPrivateKey key(k.n, 3, k.d, k.p, k.q);
      const std::size_t len = key.public_key().modulus_bytes();
      for (int i = 0; i < 3; ++i) {
        const Bytes msg = {static_cast<std::uint8_t>(i), 0x42};
        const BigInt m = BigInt::from_bytes(pkcs1_encode_sha256(msg, len));
        const Bytes sig = key.sign(msg);
        EXPECT_EQ(BigInt::from_bytes(sig), oracle_exp(m, k.d, k.n)) << bits;
        EXPECT_TRUE(key.public_key().verify(msg, sig));
      }
    }
  });
}

TEST(MontgomeryOracleRsa, TestKeySignaturesInvertUnderPublicExponent) {
  for_each_kernel([&] {
    const Bytes msg = {1, 2, 3};
    for (int i = 0; i < 4; ++i) {
      const RsaPrivateKey& key = RsaPrivateKey::test_key(i);
      const RsaPublicKey& pub = key.public_key();
      const BigInt s = BigInt::from_bytes(key.sign(msg));
      EXPECT_EQ(oracle_exp(s, BigInt(pub.e()), pub.n()),
                BigInt::from_bytes(pkcs1_encode_sha256(msg, pub.modulus_bytes())));
    }
  });
}

TEST(MontgomeryOracleFermat, InverseQMatchesEuclid) {
  for (DhBits bits : {DhBits::k512, DhBits::k1024}) {
    const DhGroup& grp = dh_group(bits);
    const BigInt& q = grp.q();
    Drbg rng(bits == DhBits::k512 ? 512 : 1024, "oracle-fermat");
    std::vector<BigInt> as = {BigInt(1), BigInt(2), q - BigInt(1),
                              q + BigInt(3), q * BigInt(5) + BigInt(7)};
    for (int i = 0; i < 16; ++i) as.push_back(BigInt::random_below(q, rng));
    for (const BigInt& a : as) {
      if ((a % q).is_zero()) continue;
      EXPECT_EQ(grp.inverse_q(a), mod_inverse_euclid(a, q)) << a.to_hex();
    }
    EXPECT_THROW(grp.inverse_q(BigInt()), std::domain_error);
    EXPECT_THROW(grp.inverse_q(q), std::domain_error);
    EXPECT_THROW(grp.inverse_q(q * BigInt(2)), std::domain_error);
  }
}

TEST(MontgomeryOracleFermat, CryptoContextInverseQKeepsContract) {
  const DhGroup& grp = dh_group(DhBits::k512);
  CryptoContext crypto(grp, RsaPrivateKey::test_key(0), CostModel{},
                       Drbg(7, "oracle-ctx"));
  Drbg rng(8, "oracle-ctx-a");
  const BigInt a = BigInt::random_below(grp.q(), rng) + BigInt(1);
  EXPECT_EQ(crypto.inverse_q(a), mod_inverse_euclid(a, grp.q()));
  EXPECT_EQ(crypto.counters().mod_inverse, 1u);
  EXPECT_THROW(crypto.inverse_q(grp.q()), std::domain_error);
}

// ---- kernel choice and the MULX/ADCX/ADOX routines -------------------------

TEST(MontgomeryKernelDispatch, AdxChosenExactlyWhenCpuidReportsBmi2AndAdx) {
  bool want = false;
#if defined(__x86_64__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0)
    want = ((ebx >> 8) & 1) != 0 && ((ebx >> 19) & 1) != 0;  // BMI2, ADX
#endif
  want = want && adx::kBuilt;
  EXPECT_EQ(adx::selected(), want);
  const MontgomeryKernel best = want ? MontgomeryKernel::kAdx : MontgomeryKernel::kPortable;
  EXPECT_EQ(montgomery_kernel(8), best);
  {
    const KernelCapForTesting portable(MontgomeryKernel::kPortable);
    EXPECT_EQ(montgomery_kernel(8), MontgomeryKernel::kPortable);
    EXPECT_EQ(montgomery_kernel(16), MontgomeryKernel::kPortable);
  }
  {
    const KernelCapForTesting adx(MontgomeryKernel::kAdx);
    EXPECT_EQ(montgomery_kernel(16), best);
  }
  EXPECT_EQ(montgomery_kernel(8), best);
  // Other limb counts always run the portable kernel.
  for (std::size_t limbs : {1u, 7u, 9u, 15u, 17u, 64u})
    EXPECT_EQ(montgomery_kernel(limbs), MontgomeryKernel::kPortable) << limbs;
}

/// What the IFMA routines need from this CPU: AVX512F, AVX512IFMA and
/// AVX512VL in cpuid leaf 7 EBX (bits 16, 21, 31), and an OS that saves the
/// opmask and ZMM state (XCR0 bits 5-7, with SSE and AVX, bits 1-2).
bool cpuid_reports_ifma() {
#if defined(__x86_64__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || ((ecx >> 27) & 1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  if (((ebx >> 16) & 1) == 0 || ((ebx >> 21) & 1) == 0 || ((ebx >> 31) & 1) == 0) return false;
  unsigned xcr0 = 0;
  unsigned xcr0_high = 0;
  asm volatile("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  return (xcr0 & 0xe6) == 0xe6;
#else
  return false;
#endif
}

TEST(MontgomeryKernelDispatch, IfmaChosenExactlyWhenCpuidReportsAvx512IfmaAndZmmState) {
  const bool want = cpuid_reports_ifma() && ifma::kBuilt;
  EXPECT_EQ(ifma::selected(), want);
  const MontgomeryKernel below = montgomery_kernel(8);  // ADX or portable
  EXPECT_NE(below, MontgomeryKernel::kIfma);
  EXPECT_EQ(montgomery_kernel(16), want ? MontgomeryKernel::kIfma : below);
  {
    const KernelCapForTesting adx(MontgomeryKernel::kAdx);
    EXPECT_EQ(montgomery_kernel(16), below);
    const KernelCapForTesting portable(MontgomeryKernel::kPortable);  // nested caps
    EXPECT_EQ(montgomery_kernel(16), MontgomeryKernel::kPortable);
  }
  EXPECT_EQ(montgomery_kernel(16), want ? MontgomeryKernel::kIfma : below);
  EXPECT_STREQ(kernel_name(MontgomeryKernel::kIfma), "avx512-ifma");
  EXPECT_STREQ(kernel_name(MontgomeryKernel::kAdx), "mulx/adcx/adox");
  EXPECT_STREQ(kernel_name(MontgomeryKernel::kPortable), "portable");
}

constexpr const char* kNoAdx =
    "no MULX/ADCX/ADOX routines here (not an x86-64 ELF build, or cpuid leaf 7 reports "
    "no BMI2/ADX): the portable kernel is the only one";

/// Odd moduli of `limbs` limbs whose products carry through every word:
/// every limb all ones; a top limb of 2^64 - 1 or 2^63 + 1 over random lower
/// limbs; and a bottom limb of 2^64 - 1 or 2^63 + 1 under random upper limbs
/// (top bit set).
std::vector<BigInt> carry_stress_moduli(std::size_t limbs, Drbg& rng) {
  constexpr std::uint64_t kOnes = ~std::uint64_t{0};
  constexpr std::uint64_t kHalfPlusOne = (std::uint64_t{1} << 63) + 1;
  auto random_limbs = [&] {
    std::vector<std::uint64_t> l(limbs);
    for (std::uint64_t& x : l) x = BigInt::random_bits(64, rng).limbs()[0];
    l[0] |= 1;
    l[limbs - 1] |= std::uint64_t{1} << 63;
    return l;
  };
  std::vector<BigInt> ns = {all_ones(64 * limbs)};
  for (std::uint64_t top : {kOnes, kHalfPlusOne}) {
    std::vector<std::uint64_t> l = random_limbs();
    l[limbs - 1] = top;
    ns.push_back(BigInt::from_limbs(l));
  }
  for (std::uint64_t bottom : {kOnes, kHalfPlusOne}) {
    std::vector<std::uint64_t> l = random_limbs();
    l[0] = bottom;
    ns.push_back(BigInt::from_limbs(l));
  }
  return ns;
}

/// Operands below n that stress the carries: all-ones limbs (below the top
/// limb, and every limb where that is below n), n - 1, n - 2, 1 and a random
/// one.
std::vector<BigInt> carry_stress_operands(const BigInt& n, Drbg& rng) {
  const std::size_t width = 64 * n.limbs().size();
  std::vector<BigInt> xs = {all_ones(width - 64), n - BigInt(1), n - BigInt(2), BigInt(1),
                            BigInt::random_below(n, rng)};
  for (const BigInt& x : {all_ones(width - 1), all_ones(width)})
    if (x < n) xs.push_back(x);
  return xs;
}

/// What a context computes from one pair of operands: the product, the
/// square by the public path's squaring, a squaring chain, all-ones and
/// random exponents on the secret path, and products and powers whose last
/// Montgomery product is 0 or n - 1.
std::vector<BigInt> kernel_results(const BigInt& n, const BigInt& a, const BigInt& b,
                                   const BigInt& e) {
  const std::size_t width = 64 * n.limbs().size();
  const MontgomeryCtx pub(n);
  const MontgomeryCtx sec(n, width);
  return {pub.mul(a, b),
          pub.exp(a, BigInt(2)),
          pub.exp(b, BigInt(1) << 100),
          sec.exp(a, all_ones(width)),
          sec.exp(b, e),
          pub.mul(BigInt(), b),
          pub.mul(n - BigInt(1), BigInt(1)),
          sec.exp(n - BigInt(1), all_ones(width))};
}

/// -n^{-1} mod 2^64 for odd n0.
std::uint64_t neg_inverse_64(std::uint64_t n0) {
  std::uint64_t inv = n0;
  for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
  return 0 - inv;
}

/// The routines of montgomery_adx.h at K limbs, called directly, against
/// BigInt: every product and square of xs, with out distinct from the
/// operands and aliasing a, b or both; products whose result is 0 or n - 1;
/// and 64 chained in-place squarings from each all-ones operand below n.
/// Each result must equal x * y / R mod n limb for limb.
template <std::size_t K>
void check_routines_limb_for_limb(const BigInt& n, const std::vector<BigInt>& xs) {
  // The routines exist on x86-64 only; elsewhere the caller skips first.
  if constexpr (adx::kBuilt) {
    using Limbs = std::vector<std::uint64_t>;
    auto padded = [](const BigInt& v) {
      Limbs l = v.limbs();
      l.resize(K, 0);
      return l;
    };
    const Limbs nl = padded(n);
    const std::uint64_t n0_inv = neg_inverse_64(nl[0]);
    const BigInt r = BigInt(1) << (64 * K);
    const BigInt r_inv = mod_inverse_euclid(r % n, n);
    auto want = [&](const BigInt& x, const BigInt& y) { return padded(x * y * r_inv % n); };
    auto mul = [&](const BigInt& x, const BigInt& y) {
      Limbs out(K);
      adx::mul<K>(out.data(), padded(x).data(), padded(y).data(), nl.data(), n0_inv);
      return out;
    };
    for (const BigInt& a : xs) {
      Limbs out(K);
      Limbs in_place = padded(a);
      adx::sqr<K>(out.data(), in_place.data(), nl.data(), n0_inv);
      adx::sqr<K>(in_place.data(), in_place.data(), nl.data(), n0_inv);
      EXPECT_EQ(out, want(a, a)) << "square of " << a.to_hex() << " mod " << n.to_hex();
      EXPECT_EQ(in_place, out) << "in-place square of " << a.to_hex();
      for (const BigInt& b : xs) {
        const Limbs al = padded(a);
        const Limbs bl = padded(b);
        Limbs over_a = al;
        Limbs over_b = bl;
        adx::mul<K>(out.data(), al.data(), bl.data(), nl.data(), n0_inv);
        adx::mul<K>(over_a.data(), over_a.data(), bl.data(), nl.data(), n0_inv);
        adx::mul<K>(over_b.data(), al.data(), over_b.data(), nl.data(), n0_inv);
        EXPECT_EQ(out, want(a, b)) << a.to_hex() << " * " << b.to_hex() << " mod " << n.to_hex();
        EXPECT_EQ(over_a, out) << "out = a: " << a.to_hex() << " * " << b.to_hex();
        EXPECT_EQ(over_b, out) << "out = b: " << a.to_hex() << " * " << b.to_hex();
      }
      Limbs both = padded(a);
      adx::mul<K>(both.data(), both.data(), both.data(), nl.data(), n0_inv);
      EXPECT_EQ(both, want(a, a)) << "out = a = b: " << a.to_hex();
      EXPECT_EQ(mul(BigInt(), a), padded(BigInt())) << "0 * " << a.to_hex();
    }
    // (n - 1) * R / R = n - 1, the largest reduced result.
    EXPECT_EQ(mul(n - BigInt(1), r % n), padded(n - BigInt(1))) << "mod " << n.to_hex();
    // A product of n's factors is 0 mod n: the all-ones modulus
    // 2^(64K) - 1 is (2^(32K) - 1)(2^(32K) + 1).
    if (n == all_ones(64 * K)) {
      const BigInt low = all_ones(32 * K);
      const BigInt high = low + BigInt(2);
      EXPECT_EQ(mul(low, high), padded(BigInt()));
      EXPECT_EQ(mul(high * r % n, low), padded(BigInt()));
    }
    for (const BigInt& x : {all_ones(64 * K - 64), all_ones(64 * K - 1), all_ones(64 * K)}) {
      if (x >= n) continue;
      BigInt expect = x;
      Limbs chain = padded(x);
      for (int t = 0; t < 64; ++t) {
        adx::sqr<K>(chain.data(), chain.data(), nl.data(), n0_inv);
        expect = expect * expect * r_inv % n;
        ASSERT_EQ(chain, padded(expect))
            << "squaring " << t + 1 << " of " << x.to_hex() << " mod " << n.to_hex();
      }
    }
  }
}

TEST(MontgomeryAdx, CarryStressMatchesPortableLimbForLimb) {
  if (!adx::selected()) GTEST_SKIP() << kNoAdx;
  for (std::size_t limbs : {8u, 16u}) {
    Drbg rng(limbs, "oracle-carry");
    for (const BigInt& n : carry_stress_moduli(limbs, rng)) {
      const std::vector<BigInt> xs = carry_stress_operands(n, rng);
      const BigInt e = BigInt::random_bits(64 * limbs, rng);
      const std::size_t width = 64 * limbs;
      for (const BigInt& a : xs) {
        for (const BigInt& b : xs) {
          std::vector<BigInt> fast;
          {
            const KernelCapForTesting use_adx(MontgomeryKernel::kAdx);
            fast = kernel_results(n, a, b, e);
          }
          std::vector<BigInt> portable;
          {
            const KernelCapForTesting use_portable(MontgomeryKernel::kPortable);
            portable = kernel_results(n, a, b, e);
          }
          const std::vector<BigInt> want = {a * b % n,
                                            a * a % n,
                                            oracle_exp(b, BigInt(1) << 100, n),
                                            oracle_exp(a, all_ones(width), n),
                                            oracle_exp(b, e, n),
                                            BigInt(),
                                            n - BigInt(1),
                                            n - BigInt(1)};
          ASSERT_EQ(fast.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(fast[i].limbs(), portable[i].limbs())
                << "result " << i << " n " << n.to_hex() << " a " << a.to_hex() << " b "
                << b.to_hex();
            EXPECT_EQ(fast[i], want[i]) << "result " << i << " n " << n.to_hex();
          }
        }
      }
      if (limbs == 8)
        check_routines_limb_for_limb<8>(n, xs);
      else
        check_routines_limb_for_limb<16>(n, xs);
    }
  }
}

template <std::size_t K>
void check_routine_contract(const BigInt& n, const std::vector<BigInt>& xs) {
  // The routines exist on x86-64 only; elsewhere the caller skips first.
  if constexpr (adx::kBuilt) {
    auto padded = [](const BigInt& v) {
      std::vector<std::uint64_t> l = v.limbs();
      l.resize(K, 0);
      return l;
    };
    const std::vector<std::uint64_t> nl = padded(n);
    const std::uint64_t n0_inv = neg_inverse_64(nl[0]);
    const BigInt r = BigInt(1) << (64 * K);
    // K result words and a guard word the routine must leave alone.
    constexpr std::uint64_t kGuard = 0x5a5a5a5a5a5a5a5aULL;
    auto result = [&](const std::vector<std::uint64_t>& out) {
      EXPECT_EQ(out[K], kGuard) << "wrote past its k words";
      return BigInt::from_limbs(std::vector<std::uint64_t>(out.begin(), out.begin() + K));
    };
    for (const BigInt& a : xs) {
      const std::vector<std::uint64_t> al = padded(a);
      std::vector<std::uint64_t> out(K + 1, kGuard);
      adx::sqr<K>(out.data(), al.data(), nl.data(), n0_inv);
      const BigInt sq = result(out);
      EXPECT_LT(sq, n) << "square of " << a.to_hex() << " mod " << n.to_hex();
      EXPECT_EQ(sq * r % n, a * a % n) << "square of " << a.to_hex() << " mod " << n.to_hex();
      for (const BigInt& b : xs) {
        const std::vector<std::uint64_t> bl = padded(b);
        adx::mul<K>(out.data(), al.data(), bl.data(), nl.data(), n0_inv);
        const BigInt prod = result(out);
        EXPECT_LT(prod, n) << a.to_hex() << " * " << b.to_hex() << " mod " << n.to_hex();
        EXPECT_EQ(prod * r % n, a * b % n)
            << a.to_hex() << " * " << b.to_hex() << " mod " << n.to_hex();
      }
    }
  }
}

// The routines on their own: out receives a * b / R mod n fully reduced
// (< n), and nothing past its k words.
TEST(MontgomeryAdx, RoutinesKeepTheirContractOnCarryStressOperands) {
  if (!adx::selected()) GTEST_SKIP() << kNoAdx;
  for (std::size_t limbs : {8u, 16u}) {
    Drbg rng(limbs, "oracle-carry-raw");
    std::vector<BigInt> ns = carry_stress_moduli(limbs, rng);
    ns.push_back(random_modulus(limbs, rng));
    for (const BigInt& n : ns) {
      const std::vector<BigInt> xs = carry_stress_operands(n, rng);
      if (limbs == 8)
        check_routine_contract<8>(n, xs);
      else
        check_routine_contract<16>(n, xs);
    }
  }
}

// ---- the AVX-512 IFMA routines ---------------------------------------------

constexpr const char* kNoIfma =
    "no AVX-512 IFMA routines here (cpuid leaf 7 reports no AVX512F/IFMA/VL, or the OS "
    "does not save the ZMM state): 16-limb moduli run MULX/ADCX/ADOX or the portable kernel";

/// 16-limb moduli for the radix-2^52 routines: the carry-stress moduli, and
/// n just above 2^1023 (2n barely exceeds 2^1024) and just below 2^1024
/// (values in [n, 2n) reach bit 1024, the 20th digit's top).
std::vector<BigInt> ifma_stress_moduli(Drbg& rng) {
  std::vector<BigInt> ns = carry_stress_moduli(16, rng);
  const BigInt odd = BigInt::random_bits(32, rng) * BigInt(2) + BigInt(1);
  ns.push_back((BigInt(1) << 1023) + odd);
  ns.push_back((BigInt(1) << 1024) - odd - BigInt(2));
  return ns;
}

/// Values in [0, 2n) that stress the radix-2^52 product: 0, 1, n - 1, n,
/// n + 1, 2n - 2, 2n - 1, random ones below n and in [n, 2n), and every
/// value whose 52-bit digits are all ones up to some digit (the digits of
/// 2^(52j) - 1), and 2^1024 - 1, where below 2n.
std::vector<BigInt> ifma_stress_operands(const BigInt& n, Drbg& rng) {
  const BigInt two_n = n + n;
  std::vector<BigInt> xs = {BigInt(),
                            BigInt(1),
                            n - BigInt(1),
                            n,
                            n + BigInt(1),
                            two_n - BigInt(2),
                            two_n - BigInt(1),
                            BigInt::random_below(n, rng),
                            n + BigInt::random_below(n, rng)};
  for (std::size_t digits : {1u, 10u, 19u, 20u}) {
    const BigInt x = all_ones(52 * digits);
    if (x < two_n) xs.push_back(x);
  }
  if (all_ones(1024) < two_n) xs.push_back(all_ones(1024));
  return xs;
}

TEST(MontgomeryIfma, CarryStressMatchesAdxAndPortable) {
  if (!ifma::selected()) GTEST_SKIP() << kNoIfma;
  Drbg rng(16, "oracle-ifma-carry");
  for (const BigInt& n : ifma_stress_moduli(rng)) {
    // The context takes operands of up to n's bit length as they are, so
    // those in [n, 2^|n|) reach the kernel unreduced.
    std::vector<BigInt> xs = carry_stress_operands(n, rng);
    xs.push_back(n);
    xs.push_back(all_ones(n.bit_length()));
    const BigInt e = BigInt::random_bits(1024, rng);
    for (const BigInt& a : xs) {
      for (const BigInt& b : {xs[1], xs.back(), xs[4]}) {  // n - 1, all ones, random
        const std::vector<BigInt> want = {a * b % n,
                                          a * a % n,
                                          oracle_exp(b, BigInt(1) << 100, n),
                                          oracle_exp(a, all_ones(1024), n),
                                          oracle_exp(b, e, n),
                                          BigInt(),
                                          n - BigInt(1),
                                          n - BigInt(1)};
        for (MontgomeryKernel kernel : kernels_serving(16)) {
          const KernelCapForTesting cap(kernel);
          const std::vector<BigInt> got = kernel_results(n, a, b, e);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i], want[i]) << kernel_name(kernel) << " result " << i << " n "
                                       << n.to_hex() << " a " << a.to_hex() << " b "
                                       << b.to_hex();
        }
      }
    }
  }
}

/// v < 2^1040 as ifma::kWords words of 52-bit digits, the top four zero.
std::vector<std::uint64_t> radix52(const BigInt& v) {
  constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;
  std::vector<std::uint64_t> l = v.limbs();
  l.resize(18, 0);
  std::vector<std::uint64_t> d(ifma::kWords, 0);
  for (std::size_t i = 0; i < ifma::kDigits; ++i) {
    const std::size_t bit = 52 * i;
    const std::size_t s = bit % 64;
    std::uint64_t x = l[bit / 64] >> s;
    if (s > 12) x |= l[bit / 64 + 1] << (64 - s);
    d[i] = x & kMask52;
  }
  return d;
}

/// The value of a digit array, which must hold digits below 2^52 and four
/// zero words on top.
BigInt from_radix52(const std::vector<std::uint64_t>& d) {
  EXPECT_EQ(d.size(), ifma::kWords);
  BigInt v;
  for (std::size_t i = ifma::kWords; i-- > 0;) {
    EXPECT_LT(d[i], i < ifma::kDigits ? std::uint64_t{1} << 52 : 1) << "digit " << i;
    v = (v << 52) + BigInt(d[i]);
  }
  return v;
}

// The routines of montgomery_ifma.h called directly on operands anywhere in
// [0, 2n), which the context's own values reach between products: each
// product is below 2n with every digit below 2^52, congruent to a * b / R
// (R = 2^1040), and the same with out aliasing a, b or both; store()
// reduces it below n; products whose result has all-ones digits, and 2000
// random products, push the final carry ripple through every digit.
TEST(MontgomeryIfma, RoutinesKeepTheirContractUpTo2n) {
  if (!ifma::selected()) GTEST_SKIP() << kNoIfma;
  if constexpr (ifma::kBuilt) {
    using Words = std::vector<std::uint64_t>;
    Drbg rng(17, "oracle-ifma-raw");
    std::vector<BigInt> ns = ifma_stress_moduli(rng);
    ns.push_back(random_modulus(16, rng));
    const BigInt r = BigInt(1) << 1040;
    for (const BigInt& n : ns) {
      Words nl = n.limbs();
      nl.resize(16, 0);
      const Words n52 = radix52(n);
      Words loaded(ifma::kWords);
      ifma::load(loaded.data(), nl.data());
      EXPECT_EQ(loaded, n52) << "load of " << n.to_hex();
      const std::uint64_t k0 = neg_inverse_64(nl[0]) & ((std::uint64_t{1} << 52) - 1);
      const BigInt r_inv = mod_inverse_euclid(r % n, n);
      const BigInt two_n = n + n;
      auto mul = [&](const BigInt& x, const BigInt& y) {
        Words out(ifma::kWords);
        ifma::mul(out.data(), radix52(x).data(), radix52(y).data(), n52.data(), k0);
        return out;
      };
      auto check = [&](const Words& out, const BigInt& x, const BigInt& y) {
        const BigInt got = from_radix52(out);
        const BigInt want = x * y * r_inv % n;
        EXPECT_LT(got, two_n) << x.to_hex() << " * " << y.to_hex() << " mod " << n.to_hex();
        EXPECT_EQ(got % n, want) << x.to_hex() << " * " << y.to_hex() << " mod " << n.to_hex();
        Words stored(16);
        ifma::store(stored.data(), out.data(), nl.data());
        EXPECT_EQ(BigInt::from_limbs(stored), want) << "store, mod " << n.to_hex();
      };
      const std::vector<BigInt> xs = ifma_stress_operands(n, rng);
      for (const BigInt& a : xs) {
        for (const BigInt& b : xs) {
          const Words out = mul(a, b);
          check(out, a, b);
          Words over_a = radix52(a);
          Words over_b = radix52(b);
          ifma::mul(over_a.data(), over_a.data(), radix52(b).data(), n52.data(), k0);
          ifma::mul(over_b.data(), radix52(a).data(), over_b.data(), n52.data(), k0);
          EXPECT_EQ(over_a, out) << "out = a: " << a.to_hex() << " * " << b.to_hex();
          EXPECT_EQ(over_b, out) << "out = b: " << a.to_hex() << " * " << b.to_hex();
        }
        Words both = radix52(a);
        ifma::mul(both.data(), both.data(), both.data(), n52.data(), k0);
        EXPECT_EQ(both, mul(a, a)) << "out = a = b: " << a.to_hex();
      }
      // Results whose digits are all ones: x = v * R mod n times 1 is v
      // exactly for v < n (the product is at most n and congruent to v).
      for (std::size_t digits : {1u, 2u, 10u, 19u, 20u}) {
        const BigInt v = all_ones(52 * digits);
        if (v >= n) continue;
        const BigInt x = v * r % n;
        EXPECT_EQ(from_radix52(mul(x, BigInt(1))), v) << digits << " all-ones digits";
        check(mul(x, BigInt(1)), x, BigInt(1));
      }
      for (int i = 0; i < 2000; ++i) {
        const BigInt a = BigInt::random_below(two_n, rng);
        const BigInt b = BigInt::random_below(two_n, rng);
        check(mul(a, b), a, b);
      }
      // 64 chained in-place squarings from each all-ones operand.
      for (const BigInt& x : xs) {
        if (x.bit_length() < 52 * 19) continue;
        BigInt expect = x;
        Words chain = radix52(x);
        for (int t = 0; t < 64; ++t) {
          ifma::mul(chain.data(), chain.data(), chain.data(), n52.data(), k0);
          expect = expect * expect * r_inv % n;
          ASSERT_EQ(from_radix52(chain) % n, expect)
              << "squaring " << t + 1 << " of " << x.to_hex() << " mod " << n.to_hex();
        }
      }
    }
  }
}

// The fixed-base comb table is kept per backend: a table built by one
// kernel and read through another would be in the wrong radix or form.
// Each ordered pair of this CPU's 16-limb kernels builds the table of a
// fresh DH-1024 group on the first and reads it through the second.
TEST(MontgomeryOracleComb, TableBuiltOnOneKernelReadThroughAnother) {
  const std::vector<MontgomeryKernel> kernels = kernels_serving(16);
  if (kernels.size() < 2) GTEST_SKIP() << "one kernel serves 16-limb moduli here";
  const DhGroup& ref = dh_group(DhBits::k1024);
  Drbg rng(29, "oracle-comb-kernels");
  for (MontgomeryKernel builder : kernels) {
    for (MontgomeryKernel reader : kernels) {
      if (reader == builder) continue;
      const DhGroup grp(ref.p(), ref.q(), ref.g());  // comb table not built yet
      const BigInt e[2] = {BigInt::random_below(ref.q(), rng),
                           BigInt::random_below(ref.q(), rng)};
      {
        const KernelCapForTesting cap(builder);
        EXPECT_EQ(grp.exp_g(e[0]), oracle_exp(ref.g(), e[0], ref.p()))
            << "built on " << kernel_name(builder);
      }
      const KernelCapForTesting cap(reader);
      EXPECT_EQ(grp.exp_g(e[1]), oracle_exp(ref.g(), e[1], ref.p()))
          << "built on " << kernel_name(builder) << ", read on " << kernel_name(reader);
      EXPECT_EQ(grp.exp(grp.g(), e[0]), oracle_exp(ref.g(), e[0], ref.p()))
          << "built on " << kernel_name(builder) << ", read on " << kernel_name(reader);
    }
  }
}

}  // namespace
}  // namespace sgk
