#include "speed.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>

#include "tracer.h"

namespace perfbench {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr int kLimbs = 16;
constexpr int kProducts = 600;
constexpr int kBlocks = 1200;
constexpr u64 kProbeEveryNs = 25'000'000;

/// kProducts Montgomery-style products of 16-limb operands (CIOS: a
/// multiply-accumulate row, then a reduction row, per limb).
__attribute__((noinline)) u64 montgomery_kernel(u64 seed) {
  u64 a[kLimbs], b[kLimbs], n[kLimbs], t[kLimbs + 2];
  for (int i = 0; i < kLimbs; ++i) {
    a[i] = seed * static_cast<u64>(2 * i + 1) + static_cast<u64>(i);
    b[i] = ~a[i] * 3;
    n[i] = (a[i] ^ 0x9e3779b97f4a7c15ULL) | 1;
  }
  for (int it = 0; it < kProducts; ++it) {
    std::memset(t, 0, sizeof t);
    for (int i = 0; i < kLimbs; ++i) {
      u64 c = 0;
      for (int j = 0; j < kLimbs; ++j) {
        const u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + c;
        t[j] = static_cast<u64>(cur);
        c = static_cast<u64>(cur >> 64);
      }
      u128 cur = static_cast<u128>(t[kLimbs]) + c;
      t[kLimbs] = static_cast<u64>(cur);
      t[kLimbs + 1] = static_cast<u64>(cur >> 64);
      const u64 m = t[0] * 0x5851f42d4c957f2dULL;
      u128 acc = static_cast<u128>(m) * n[0] + t[0];
      c = static_cast<u64>(acc >> 64);
      for (int j = 1; j < kLimbs; ++j) {
        acc = static_cast<u128>(m) * n[j] + t[j] + c;
        t[j - 1] = static_cast<u64>(acc);
        c = static_cast<u64>(acc >> 64);
      }
      cur = static_cast<u128>(t[kLimbs]) + c;
      t[kLimbs - 1] = static_cast<u64>(cur);
      t[kLimbs] = t[kLimbs + 1] + static_cast<u64>(cur >> 64);
    }
    std::memcpy(a, t, sizeof a);
  }
  return a[0] ^ a[kLimbs - 1];
}

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// kBlocks SHA-256 compressions (message schedule and 64 rounds).
__attribute__((noinline)) u64 sha256_kernel(u64 seed) {
  static constexpr std::uint32_t kK[8] = {0x428a2f98, 0x71374491, 0xb5c0fbcf,
                                          0xe9b5dba5, 0x3956c25b, 0x59f111f1,
                                          0x923f82a4, 0xab1c5ed5};
  std::uint32_t h[8];
  for (int i = 0; i < 8; ++i) h[i] = static_cast<std::uint32_t>(seed * static_cast<u64>(i + 3));
  std::uint32_t w[64];
  for (int b = 0; b < kBlocks; ++b) {
    for (int i = 0; i < 16; ++i)
      w[i] = h[i & 7] ^ static_cast<std::uint32_t>(static_cast<u64>(b * i) + seed);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h[0], b1 = h[1], c = h[2], d = h[3], e = h[4], f = h[5],
                  g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = hh + s1 + ch + kK[i & 7] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b1) ^ (a & c) ^ (b1 & c);
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b1;
      b1 = a;
      a = t1 + s0 + maj;
    }
    const std::uint32_t v[8] = {a, b1, c, d, e, f, g, hh};
    for (int i = 0; i < 8; ++i) h[i] += v[i];
  }
  return h[0] ^ h[7];
}

std::atomic<Probe> g_probe{Probe::kOff};

struct State {
  u64 last_ns = 0;
  u64 total_ns = 0;
  u64 sink = 1;
  bool expired = true;
  std::array<u64, 5> recent{};
  std::size_t count = 0;
};

State& state() {
  thread_local State s;
  return s;
}

}  // namespace

void set_probing(Probe probe) { g_probe.store(probe, std::memory_order_relaxed); }

bool probe_due() {
  const State& s = state();
  return g_probe.load(std::memory_order_relaxed) != Probe::kOff &&
         (s.expired || now_ns() - s.last_ns >= kProbeEveryNs);
}

void probe_now() {
  const Probe probe = g_probe.load(std::memory_order_relaxed);
  if (probe == Probe::kOff) return;
  State& s = state();
  const u64 t0 = now_ns();
  s.sink += probe == Probe::kMontgomery ? montgomery_kernel(s.sink)
                                        : sha256_kernel(s.sink);
  const u64 t1 = now_ns();
  s.recent[s.count++ % s.recent.size()] = t1 - t0;
  s.total_ns += t1 - t0;
  s.last_ns = t1;
  s.expired = false;
}

void probe_if_due() {
  if (probe_due()) probe_now();
}

void count_probe(std::uint64_t ns) {
  State& s = state();
  s.total_ns += ns;
  s.last_ns = now_ns();
  s.expired = false;
}

void expire_probe() { state().expired = true; }

double speed_factor() {
  const State& s = state();
  if (s.count == 0) return 1.0;
  const std::size_t n = std::min(s.count, s.recent.size());
  std::array<u64, 5> v = s.recent;
  std::sort(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n));
  return kNominalProbeNs / static_cast<double>(v[n / 2]);
}

std::uint64_t probe_ns_total() { return state().total_ns; }

}  // namespace perfbench
