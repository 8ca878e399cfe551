#include "bignum/montgomery.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "bignum/montgomery_adx.h"
#include "bignum/montgomery_ifma.h"
#include "util/secure_bytes.h"

namespace sgk {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr std::size_t kMaxLimbs = MontgomeryCtx::kMaxLimbs;
// Secret-path window width. Its 16-entry table is also the largest
// sliding-window table (odd powers for 5-bit windows).
constexpr std::size_t kFixedWindow = 4;
constexpr std::size_t kTableSize = std::size_t{1} << kFixedWindow;

// Fixed-base comb shape: the padded exponent is cut into kTeeth blocks, and
// each block into kCombTables runs of columns. Table j holds, for every
// subset u of the teeth, base^(sum over i in u of 2^(i*block + j*columns)).
constexpr std::size_t kTeeth = 4;
constexpr std::size_t kCombTables = 8;
constexpr std::size_t kCombEntries = std::size_t{1} << kTeeth;

struct CombShape {
  std::size_t block;    // bits per tooth: ceil(width / kTeeth)
  std::size_t columns;  // columns per table: ceil(block / kCombTables)
};

CombShape comb_shape(std::size_t width) {
  const std::size_t block = (width + kTeeth - 1) / kTeeth;
  return {block, (block + kCombTables - 1) / kCombTables};
}

// -n^{-1} mod 2^64 by Newton iteration (n odd).
u64 neg_inv64(u64 n) {
  u64 inv = n;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) inv *= 2 - n * inv;
  return ~inv + 1;  // -(n^{-1})
}

// v, or v mod n when v is wider than n: at most k limbs, which is all the
// kernel needs. The branch reads only v's (public) width, never its value.
const BigInt& narrowed(const BigInt& v, const BigInt& n, BigInt& scratch) {
  if (v.bit_length() <= n.bit_length()) return v;
  scratch = v % n;
  return scratch;
}

// Sliding-window width for a public exponent of `bits` bits (OpenSSL's
// BN_window_bits_for_exponent_size, capped at 5).
std::size_t sliding_width(std::size_t bits) {
  if (bits > 239) return 5;
  if (bits > 79) return 4;
  if (bits > 23) return 3;
  return 1;
}

// All ones if a == b, else zero, without a branch.
u64 eq_mask(u64 a, u64 b) {
  const u64 x = a ^ b;
  return ((x | (0 - x)) >> 63) - 1;
}

// Three-word column accumulator (top : low) of the product-scanning
// multiply. A column sums at most 2 * kMaxLimbs + 1 products, so it never
// exceeds 2^136.
struct Accumulator {
  u128 low = 0;
  u64 top = 0;

  // += a * b: one add-with-carry chain, no branch.
  void mac(u64 a, u64 b) {
    top += __builtin_add_overflow(low, static_cast<u128>(a) * b, &low);
  }

  // += 2 * c, carrying the bit doubled out of c's low words.
  void add_twice(const Accumulator& c) {
    top += (c.top << 1 | static_cast<u64>(c.low >> 127)) +
           __builtin_add_overflow(low, c.low << 1, &low);
  }

  u64 word0() const { return static_cast<u64>(low); }

  // Returns the lowest word and shifts the accumulator down one word.
  u64 shift() {
    const u64 out = word0();
    low = low >> 64 | static_cast<u128>(top) << 64;
    top = 0;
    return out;
  }
};

struct Modulus {
  const u64* n;
  const u64* r2;  // R^2 mod n
  u64 n0_inv;
  std::size_t k;
  const u64* radix52;  // MontgomeryCtx::radix52_, or null
};

// The radix-2^64 backend, written once over the limb count. K = 8 and
// K = 16 compile with a constant limb count, and their column loops unroll
// completely (`#pragma GCC unroll 16`: the pragma takes a literal, not K, so
// K = 0's loops are unrolled by 16 with a remainder, which measured neither
// faster nor slower); K = 0 reads the limb count from the modulus at run
// time and sizes its stack arrays for kMaxLimbs. Values are fully reduced
// (< n) limb arrays of k limbs; Montgomery form is v * R mod n with
// R = 2^(64k). At K = 8 and 16, mul and sqr run the MULX/ADCX/ADOX routines
// of montgomery_adx.h instead where the kernel choice (the CPU, never the
// operands) says so; those end in their own branch-free final subtraction.
template <std::size_t K>
class Radix64 {
  static constexpr bool kAdxBuilt = adx::kBuilt && (K == 8 || K == 16);

 public:
  static constexpr std::size_t kCap = K != 0 ? K : kMaxLimbs;
  static constexpr std::size_t kCombSlot = 0;

  Radix64(const Modulus& mod, bool adx) : mod_(mod), adx_(kAdxBuilt && adx) {}

  std::size_t words() const { return K != 0 ? K : mod_.k; }

  const u64* r2() const { return mod_.r2; }

  void load(u64* out, const BigInt& v) const {
    const auto& vl = v.limbs();
    std::copy(vl.begin(), vl.end(), out);
    std::fill(out + vl.size(), out + words(), 0);
  }

  BigInt store(const u64* v) const {
    return BigInt::from_limbs(std::vector<u64>(v, v + words()));
  }

  // out = a * b / R mod n for a, b < n. Product scanning: column i of
  // a * b and of m * n go through one three-word accumulator, and the
  // reduction word m[i] is chosen as column i completes. out may alias a
  // or b.
  void mul(u64* out, const u64* a, const u64* b) const {
    if constexpr (kAdxBuilt) {
      if (adx_) return adx::mul<K>(out, a, b, mod_.n, mod_.n0_inv);
    }
    const std::size_t k = words();
    const u64* n = mod_.n;
    u64 m[kCap];
    u64 t[kCap];
    Accumulator acc;
#pragma GCC unroll 16
    for (std::size_t i = 0; i < k; ++i) {
#pragma GCC unroll 16
      for (std::size_t j = 0; j < i; ++j) {
        acc.mac(a[j], b[i - j]);
        acc.mac(m[j], n[i - j]);
      }
      acc.mac(a[i], b[0]);
      m[i] = acc.word0() * mod_.n0_inv;
      acc.mac(m[i], n[0]);  // clears the low word
      acc.shift();
    }
#pragma GCC unroll 16
    for (std::size_t i = k; i < 2 * k; ++i) {
#pragma GCC unroll 16
      for (std::size_t j = i - k + 1; j < k; ++j) {
        acc.mac(a[j], b[i - j]);
        acc.mac(m[j], n[i - j]);
      }
      t[i - k] = acc.shift();
    }
    final_sub(out, t, acc.word0());
  }

  // out = a * a / R mod n for a < n, in mul's column order. Column i sums
  // its cross products a[j] * a[i - j] (j < i - j) once into a second
  // accumulator and adds them twice, then the diagonal a[i/2]^2 for even i,
  // then the reduction terms. out may alias a. K = 0 squares through mul,
  // which measured faster than this routine at 3 and 5 limbs.
  void sqr(u64* out, const u64* a) const {
    if constexpr (K == 0) return mul(out, a, a);
    if constexpr (kAdxBuilt) {
      if (adx_) return adx::sqr<K>(out, a, mod_.n, mod_.n0_inv);
    }
    const std::size_t k = words();
    const u64* n = mod_.n;
    u64 m[kCap];
    u64 t[kCap];
    Accumulator acc;
#pragma GCC unroll 16
    for (std::size_t i = 0; i < k; ++i) {
      Accumulator cross;
#pragma GCC unroll 16
      for (std::size_t j = 0; j < i - j; ++j) cross.mac(a[j], a[i - j]);
      acc.add_twice(cross);
      if (i % 2 == 0) acc.mac(a[i / 2], a[i / 2]);
#pragma GCC unroll 16
      for (std::size_t j = 0; j < i; ++j) acc.mac(m[j], n[i - j]);
      m[i] = acc.word0() * mod_.n0_inv;
      acc.mac(m[i], n[0]);  // clears the low word
      acc.shift();
    }
#pragma GCC unroll 16
    for (std::size_t i = k; i < 2 * k; ++i) {
      Accumulator cross;
#pragma GCC unroll 16
      for (std::size_t j = i - k + 1; j < i - j; ++j) cross.mac(a[j], a[i - j]);
      acc.add_twice(cross);
      if (i % 2 == 0) acc.mac(a[i / 2], a[i / 2]);
#pragma GCC unroll 16
      for (std::size_t j = i - k + 1; j < k; ++j) acc.mac(m[j], n[i - j]);
      t[i - k] = acc.shift();
    }
    final_sub(out, t, acc.word0());
  }

  // out = entry `index` of a 16-entry table whose entries start `stride`
  // limbs apart. Every limb of every entry is read and ORed in under a mask,
  // into a local array the table cannot alias, so the scan keeps it in
  // registers and stores out once. Unrolling the entries lets the 16 masks
  // be computed independently.
  void select(u64* out, const u64* table, std::size_t stride, u64 index) const {
    const std::size_t k = words();
    u64 sum[kCap];
#pragma GCC unroll 16
    for (std::size_t j = 0; j < k; ++j) sum[j] = 0;
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kTableSize; ++i) {
      const u64 mask = eq_mask(i, index);
      const u64* entry = table + i * stride;
#pragma GCC unroll 16
      for (std::size_t j = 0; j < k; ++j) sum[j] |= entry[j] & mask;
    }
    std::copy(sum, sum + k, out);
  }

 private:
  // out = (carry : t) mod n for (carry : t) < 2n: subtracts n and keeps t
  // only if that borrows, by a masked select.
  void final_sub(u64* out, const u64* t, u64 carry) const {
    const std::size_t k = words();
    const u64* n = mod_.n;
    u64 d[kCap];
    u64 borrow = 0;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < k; ++j) {
      u64 diff;
      const bool b1 = __builtin_sub_overflow(t[j], n[j], &diff);
      const bool b2 = __builtin_sub_overflow(diff, borrow, &diff);
      d[j] = diff;
      borrow = static_cast<u64>(b1 || b2);
    }
    const u64 keep = 0 - (borrow & (carry ^ 1));
#pragma GCC unroll 16
    for (std::size_t j = 0; j < k; ++j) out[j] = (t[j] & keep) | (d[j] & ~keep);
  }

  const Modulus& mod_;
  const bool adx_;  // mul and sqr run the MULX/ADCX/ADOX routines
};

// The radix-2^52 backend of montgomery_ifma.h, 16-limb moduli only. Values
// are kWords-word digit arrays in [0, 2n), Montgomery form is v * 2^1040
// mod n, and store() makes the one final subtraction. Squaring is the
// product.
class Radix52 {
 public:
  static constexpr std::size_t kCap = ifma::kWords;
  static constexpr std::size_t kCombSlot = 1;

  explicit Radix52(const Modulus& mod) : mod_(mod), k0_(mod.n0_inv & ((u64{1} << 52) - 1)) {}

  std::size_t words() const { return kCap; }

  const u64* r2() const { return mod_.radix52 + kCap; }

  void load(u64* out, const BigInt& v) const {
    u64 limbs[16] = {};
    std::copy(v.limbs().begin(), v.limbs().end(), limbs);
    ifma::load(out, limbs);
  }

  BigInt store(const u64* v) const {
    std::vector<u64> limbs(16);
    ifma::store(limbs.data(), v, mod_.n);
    return BigInt::from_limbs(std::move(limbs));
  }

  void mul(u64* out, const u64* a, const u64* b) const {
    ifma::mul(out, a, b, mod_.radix52, k0_);
  }

  void sqr(u64* out, const u64* a) const { ifma::mul(out, a, a, mod_.radix52, k0_); }

  void select(u64* out, const u64* table, std::size_t stride, u64 index) const {
    ifma::select(out, table, stride, index);
  }

 private:
  const Modulus& mod_;
  const u64 k0_;  // -n^{-1} mod 2^52
};

// The exponentiation engine, written once over the backend, which supplies
// the radix conversions (load, store), the product and squaring, and the
// masked table scan. Every value passes between them as a Backend::kCap-word
// array of words() words in the backend's Montgomery form.
template <typename Backend>
class Engine {
 public:
  static constexpr std::size_t kCap = Backend::kCap;
  static constexpr std::size_t kCombSlot = Backend::kCombSlot;
  using Limbs = u64[kCap];
  static constexpr Limbs kOne = {1};

  explicit Engine(const Backend& be) : be_(be) {}

  /// (base ^ e) mod n for a base of at most k limbs (base * R^2 < R n, so
  /// its conversion to Montgomery form is below n, or below 2n in radix
  /// 2^52) and e > 0. `width` != 0 selects the secret path with e padded to
  /// `width` bits (e < 2^width).
  BigInt exp(const BigInt& base, const BigInt& e, std::size_t width) const {
    alignas(64) Limbs b;
    alignas(64) Limbs acc;
    be_.load(b, base);
    be_.mul(b, b, be_.r2());
    if (width != 0)
      fixed_window(acc, b, e, width);
    else
      sliding_window(acc, b, e);
    be_.mul(acc, acc, kOne);
    return be_.store(acc);
  }

  /// base ^ e mod n for 0 < e < 2^width, from build_comb's `table` for that
  /// base and width.
  BigInt comb_exp(const u64* table, const BigInt& e, std::size_t width) const {
    alignas(64) Limbs acc = {};  // comb() writes it first; -Wmaybe-uninitialized cannot see that at -O3
    comb(acc, table, e, width);
    be_.mul(acc, acc, kOne);
    return be_.store(acc);
  }

  /// Words of the comb table for a secret width.
  std::size_t comb_limbs() const { return kCombTables * kCombEntries * be_.words(); }

  /// Fills `table` (comb_limbs() words) with the Montgomery-form comb
  /// entries of base < n for exponents of up to `width` bits: one squaring
  /// chain through every single-tooth power, then each other entry as the
  /// product of two smaller subsets.
  void build_comb(u64* table, const BigInt& base, std::size_t width) const {
    const std::size_t k = be_.words();
    const CombShape s = comb_shape(width);
    auto entry = [&](std::size_t j, std::size_t u) {
      return table + (j * kCombEntries + u) * k;
    };
    alignas(64) Limbs p;  // base^(2^t)
    be_.load(p, base);
    be_.mul(p, p, be_.r2());
    const std::size_t last = (kTeeth - 1) * s.block + (kCombTables - 1) * s.columns;
    for (std::size_t t = 0;; ++t) {
      for (std::size_t i = 0; i < kTeeth; ++i)
        for (std::size_t j = 0; j < kCombTables; ++j)
          if (i * s.block + j * s.columns == t) copy(entry(j, std::size_t{1} << i), p);
      if (t == last) break;
      be_.sqr(p, p);
    }
    for (std::size_t j = 0; j < kCombTables; ++j) {
      be_.mul(entry(j, 0), be_.r2(), kOne);  // R mod n
      for (std::size_t u = 3; u < kCombEntries; ++u) {
        const std::size_t low = u & (0 - u);
        if (u != low) be_.mul(entry(j, u), entry(j, u - low), entry(j, low));
      }
    }
  }

  /// (a * b) mod n for a, b of at most k limbs: REDC(REDC(a * b) * R^2).
  /// REDC(a * b) is below R, so the second product is below R n and its
  /// REDC below n (below 2n in radix 2^52, which store() then reduces):
  /// unreduced operands need no reduction of their own.
  BigInt product(const BigInt& a, const BigInt& b) const {
    alignas(64) Limbs x;
    alignas(64) Limbs y;
    be_.load(x, a);
    be_.load(y, b);
    be_.mul(x, x, y);
    be_.mul(x, x, be_.r2());
    return be_.store(x);
  }

 private:
  // Secret path: e padded to `width` bits, fixed 4-bit windows, one masked
  // scan of the whole table per window and a multiply for every window.
  void fixed_window(u64* acc, const u64* b, const BigInt& e,
                    std::size_t width) const {
    alignas(64) u64 table[kTableSize][kCap];  // b^0 .. b^15
    be_.mul(table[0], be_.r2(), kOne);  // R mod n
    copy(table[1], b);
    for (std::size_t i = 2; i < kTableSize; ++i) be_.mul(table[i], table[i - 1], b);

    u64 ebuf[kMaxLimbs] = {};
    const auto& el = e.limbs();
    std::copy(el.begin(), el.end(), ebuf);
    const std::size_t windows = (width + kFixedWindow - 1) / kFixedWindow;
    be_.select(acc, table[0], kCap, window(ebuf, windows - 1));
    alignas(64) Limbs entry;
    for (std::size_t w = windows - 1; w-- > 0;) {
      for (std::size_t s = 0; s < kFixedWindow; ++s) be_.sqr(acc, acc);
      be_.select(entry, table[0], kCap, window(ebuf, w));
      be_.mul(acc, acc, entry);
    }
    secure_zero(ebuf, el.size() * sizeof(u64));  // the limbs that held e
  }

  // Fixed-base secret path: e padded to kTeeth * block bits. Column c of
  // table j gathers bit j * columns + c of every block into a table index;
  // each column is one squaring (none before the first) and one masked
  // scan and multiply per table.
  void comb(u64* acc, const u64* table, const BigInt& e,
            std::size_t width) const {
    const std::size_t k = be_.words();
    const CombShape s = comb_shape(width);
    u64 ebuf[kMaxLimbs] = {};
    const auto& el = e.limbs();
    std::copy(el.begin(), el.end(), ebuf);
    alignas(64) Limbs entry;
    bool first = true;
    for (std::size_t c = s.columns; c-- > 0;) {
      if (!first) be_.sqr(acc, acc);
      for (std::size_t j = kCombTables; j-- > 0;) {
        const std::size_t offset = j * s.columns + c;
        u64 index = 0;
        if (offset < s.block)
          for (std::size_t i = 0; i < kTeeth; ++i)
            index |= bit_at(ebuf, i * s.block + offset) << i;
        be_.select(entry, table + j * kCombEntries * k, k, index);
        if (first)
          copy(acc, entry);
        else
          be_.mul(acc, acc, entry);
        first = false;
      }
    }
    secure_zero(ebuf, el.size() * sizeof(u64));  // the limbs that held e
  }

  // Public path: sliding windows over the odd powers b, b^3, ...
  void sliding_window(u64* acc, const u64* b, const BigInt& e) const {
    const auto& el = e.limbs();
    auto bit = [&el](std::size_t i) { return (el[i / 64] >> (i % 64)) & 1; };
    const std::size_t ebits = e.bit_length();
    const std::size_t width = sliding_width(ebits);

    alignas(64) u64 table[kTableSize][kCap];
    copy(table[0], b);
    if (width > 1) {
      alignas(64) Limbs sq;
      be_.sqr(sq, b);
      for (std::size_t i = 1; i < (std::size_t{1} << (width - 1)); ++i)
        be_.mul(table[i], table[i - 1], sq);
    }

    bool first = true;  // the top bit is set, so the first window starts at once
    for (std::size_t i = ebits; i > 0;) {
      if (bit(i - 1) == 0) {
        be_.sqr(acc, acc);
        --i;
        continue;
      }
      // Largest window [i-1 .. i-len] ending on a set bit.
      std::size_t len = std::min(width, i);
      while (bit(i - len) == 0) --len;
      u64 value = 0;
      for (std::size_t j = 0; j < len; ++j) value = value << 1 | bit(i - 1 - j);
      if (first) {
        copy(acc, table[value >> 1]);
        first = false;
      } else {
        for (std::size_t s = 0; s < len; ++s) be_.sqr(acc, acc);
        be_.mul(acc, acc, table[value >> 1]);
      }
      i -= len;
    }
  }

  static u64 window(const u64* e, std::size_t w) {
    const std::size_t bit = w * kFixedWindow;
    return (e[bit / 64] >> (bit % 64)) & (kTableSize - 1);
  }

  static u64 bit_at(const u64* e, std::size_t i) { return (e[i / 64] >> (i % 64)) & 1; }

  void copy(u64* out, const u64* in) const { std::copy(in, in + be_.words(), out); }

  const Backend be_;
};

// Runs f on the engine of the kernel that serves mod's limb count.
template <typename F>
auto with_kernel(const Modulus& mod, F&& f) {
  const MontgomeryKernel kernel = montgomery_kernel(mod.k);
  switch (mod.k) {
    case 8:
      return f(Engine(Radix64<8>(mod, kernel == MontgomeryKernel::kAdx)));
    case 16:
      if constexpr (ifma::kBuilt) {
        if (kernel == MontgomeryKernel::kIfma) return f(Engine(Radix52(mod)));
      }
      return f(Engine(Radix64<16>(mod, kernel == MontgomeryKernel::kAdx)));
    default:
      return f(Engine(Radix64<0>(mod, false)));
  }
}

std::atomic<MontgomeryKernel> kernel_cap{MontgomeryKernel::kIfma};
}  // namespace

MontgomeryKernel montgomery_kernel(std::size_t limbs) {
  const MontgomeryKernel cap = kernel_cap.load(std::memory_order_relaxed);
  if (limbs == 16 && ifma::selected() && cap >= MontgomeryKernel::kIfma)
    return MontgomeryKernel::kIfma;
  if ((limbs == 8 || limbs == 16) && adx::selected() && cap >= MontgomeryKernel::kAdx)
    return MontgomeryKernel::kAdx;
  return MontgomeryKernel::kPortable;
}

const char* kernel_name(MontgomeryKernel kernel) {
  switch (kernel) {
    case MontgomeryKernel::kIfma:
      return "avx512-ifma";
    case MontgomeryKernel::kAdx:
      return "mulx/adcx/adox";
    case MontgomeryKernel::kPortable:
      break;
  }
  return "portable";
}

KernelCapForTesting::KernelCapForTesting(MontgomeryKernel cap)
    : previous_(kernel_cap.exchange(cap)) {}
KernelCapForTesting::~KernelCapForTesting() { kernel_cap.store(previous_); }

struct MontgomeryCtx::FixedBase {
  BigInt base;
  // One comb table per backend (Engine::kCombSlot), built on the first
  // exponentiation that runs that backend: the radix-2^64 kernels (the
  // portable and MULX/ADCX/ADOX ones compute the same table limb for limb)
  // and the radix-2^52 one hold their entries in different forms.
  struct Comb {
    std::once_flag built;
    std::vector<u64> table;
  };
  std::array<Comb, 2> combs;
};

MontgomeryCtx::MontgomeryCtx(const BigInt& modulus) : n_(modulus) {
  if (!modulus.is_odd() || modulus <= BigInt(1))
    throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 1");
  k_ = n_.limbs().size();
  if (k_ > kMaxLimbs)
    throw std::invalid_argument("MontgomeryCtx: modulus exceeds kMaxLimbs");
  n0_inv_ = neg_inv64(n_.limbs()[0]);
  r2_ = ((BigInt(1) << (128 * k_)) % n_).limbs();
  r2_.resize(k_, 0);
  if constexpr (ifma::kBuilt) {
    if (k_ == 16 && ifma::selected()) {
      // n and 2^2080 mod n (R^2 for R = 2^1040, below 2n like every
      // radix-2^52 value) in radix 2^52, from R^2 mod n for R = 2^1024 by
      // two radix-2^52 products: 2^2048 squared is 2^3056, and that times
      // 2^64 is 2^2080.
      const std::shared_ptr<u64[]> radix52 = std::make_shared<u64[]>(2 * ifma::kWords);
      u64* n52 = radix52.get();
      u64* r2_52 = n52 + ifma::kWords;
      ifma::load(n52, n_.limbs().data());
      ifma::load(r2_52, r2_.data());
      const u64 k0 = n0_inv_ & ((u64{1} << 52) - 1);
      u64 two_64[ifma::kWords] = {};
      two_64[1] = u64{1} << 12;
      ifma::mul(r2_52, r2_52, r2_52, n52, k0);
      ifma::mul(r2_52, r2_52, two_64, n52, k0);
      radix52_ = radix52;
    }
  }
}

void MontgomeryCtx::set_fixed_base(const BigInt& base) {
  if (base >= n_)
    throw std::invalid_argument("MontgomeryCtx: fixed base must be below the modulus");
  fixed_ = std::make_shared<FixedBase>();
  fixed_->base = base;
}

BigInt MontgomeryCtx::mul(const BigInt& a, const BigInt& b) const {
  BigInt sa;
  BigInt sb;
  const BigInt& x = narrowed(a, n_, sa);
  const BigInt& y = narrowed(b, n_, sb);
  const Modulus mod{n_.limbs().data(), r2_.data(), n0_inv_, k_, radix52_.get()};
  return with_kernel(mod, [&](const auto& kernel) { return kernel.product(x, y); });
}

BigInt MontgomeryCtx::exp(const BigInt& base, const BigInt& exponent) const {
  if (exponent.is_zero()) return BigInt(1);
  const std::size_t ebits = exponent.bit_length();
  const std::size_t width =
      ebits >= 64 && ebits <= ct_width_ ? ct_width_ : 0;
  const Modulus mod{n_.limbs().data(), r2_.data(), n0_inv_, k_, radix52_.get()};
  // The base is public; comparing it only tells whether it is the fixed one.
  if (width != 0 && fixed_ && base == fixed_->base) {
    return with_kernel(mod, [&](const auto& kernel) {
      FixedBase::Comb& comb = fixed_->combs[kernel.kCombSlot];
      std::call_once(comb.built, [&] {
        comb.table.resize(kernel.comb_limbs());
        kernel.build_comb(comb.table.data(), fixed_->base, width);
      });
      return kernel.comb_exp(comb.table.data(), exponent, width);
    });
  }
  BigInt scratch;
  const BigInt& b = narrowed(base, n_, scratch);
  return with_kernel(mod, [&](const auto& kernel) {
    return kernel.exp(b, exponent, width);
  });
}

}  // namespace sgk
