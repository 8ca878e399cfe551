// Microbenchmarks of the cryptographic primitives, timed with the same
// obs::WallProfiler that every bench's --wallclock uses.
//
// These are the primitives whose 2002-era costs the paper quotes in section
// 6.1.1 (modular exponentiation at 512/1024 bits, RSA-1024 sign/verify with
// e=3). On modern hardware the absolute numbers are far smaller; the *ratios*
// (1024-bit exp ~4x 512-bit, sign >> verify for e=3) are what the simulator's
// cost model encodes, and these rows let you check those ratios hold for
// this implementation too.
//
// Each row times single calls, at least kMinCalls of them and for at least
// kRowNs of host time, after one untimed warm-up call, and prints the
// calibrated p50 (histogram estimate) and exact mean ns per call. The first
// line names the Montgomery kernel that serves 512- and 1024-bit moduli on
// this CPU.
//
// Usage: bench_crypto
#include <cstdint>
#include <cstdio>
#include <string>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "bignum/prime.h"
#include "crypto/aes.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "obs/wallclock.h"
#include "util/secure_bytes.h"
#include "util/serde.h"

namespace sgk {
namespace {

constexpr std::uint64_t kMinCalls = 20;
constexpr std::uint64_t kRowNs = 200'000'000;  // 0.2 s

// Times `op` (which returns a value derived from its result, so the call's
// work is observable) and prints one row.
template <class Op>
void row(const std::string& name, Op op) {
  obs::WallProfiler prof;
  // Volatile stores the compiler must keep, so no timed result is dropped.
  [[maybe_unused]] volatile std::uint64_t sink = op();  // warm-up
  const std::uint64_t end = obs::wall_now_ns() + kRowNs;
  for (std::uint64_t calls = 0; calls < kMinCalls || obs::wall_now_ns() < end;
       ++calls) {
    const std::uint64_t t0 = obs::wall_now_ns();
    sink = op();
    prof.record(name, t0, obs::wall_now_ns());
  }
  const obs::Histogram& h = *prof.site(name);
  std::printf("%-32s %10llu %14.0f %14.0f\n", name.c_str(),
              static_cast<unsigned long long>(h.count()), h.quantile(0.5),
              h.mean());
}

void run_rows() {
  std::printf("Montgomery kernels: %s at 8 limbs (512 bits), %s at 16 limbs (1024 bits)\n",
              kernel_name(montgomery_kernel(8)), kernel_name(montgomery_kernel(16)));
  std::printf("%-32s %10s %14s %14s\n", "row", "calls", "p50_ns", "mean_ns");

  const DhGroup& g512 = dh_group(DhBits::k512);
  const DhGroup& g1024 = dh_group(DhBits::k1024);
  Drbg rng(1, "bench");
  const BigInt e512 = g512.random_exponent(rng);
  const BigInt e1024 = g1024.random_exponent(rng);
  row("BM_ModExp512_Short", [&] { return g512.exp_g(e512).bit_length(); });
  row("BM_ModExp1024_Short", [&] { return g1024.exp_g(e1024).bit_length(); });

  // The secret path's fixed windows on a random base (exp_g runs the comb):
  // a 160-bit exponent at 512 and 1024 bits (a DH share raised to a secret),
  // and a 512-bit exponent on a 512-bit context, the shape of one RSA-CRT
  // half of BM_RsaSign1024.
  const BigInt y512 = BigInt::random_below(g512.p(), rng);
  const BigInt y1024 = BigInt::random_below(g1024.p(), rng);
  row("BM_ModExp512_Window160", [&] { return g512.exp(y512, e512).bit_length(); });
  row("BM_ModExp1024_Window160", [&] { return g1024.exp(y1024, e1024).bit_length(); });
  const std::size_t half = g512.p().bit_length();
  const MontgomeryCtx crt(g512.p(), half);
  const BigInt d_half = BigInt::random_bits(half, rng);
  row("BM_ModExp512_CrtHalf512", [&] { return crt.exp(y512, d_half).bit_length(); });

  // BD's step-3 "hidden cost" exponentiations: exponent < group size.
  const BigInt base = g512.exp_g(g512.random_exponent(rng));
  for (std::uint64_t small : {7, 25, 50}) {
    const BigInt e(small);
    row("BM_ModExp512_SmallExponent/" + std::to_string(small),
        [&] { return g512.exp(base, e).bit_length(); });
  }

  const RsaPrivateKey& key = RsaPrivateKey::test_key(0);
  const Bytes msg = str_bytes("group key agreement message");
  const Bytes sig = key.sign(msg);
  row("BM_RsaSign1024", [&] { return key.sign(msg).size(); });
  row("BM_RsaVerify1024_E3", [&] {
    return static_cast<std::size_t>(key.public_key().verify(msg, sig));
  });

  const BigInt a = g512.random_exponent(rng);
  row("BM_ModInverseQ", [&] { return mod_inverse(a, g512.q()).bit_length(); });

  for (std::size_t len : {64, 1024, 16384}) {
    const Bytes data(len, 0xab);
    row("BM_Sha256/" + std::to_string(len),
        [&] { return static_cast<std::size_t>(Sha256::digest(data)[0]); });
  }

  const Bytes mac_key(32, 0x11);
  const Bytes mac_data(1024, 0xab);
  row("BM_HmacSha256", [&] {
    return static_cast<std::size_t>(hmac_sha256(mac_key, mac_data)[0]);
  });

  // One group-key derivation at SecureGroupMember::deliver_key's shape: an
  // 8-byte secret, the constant salt keyed at compile time, the group name
  // and epoch as info, and a 64-byte key block.
  constexpr HkdfSalt kGroupKeySalt("sgk-group-key");
  const Bytes secret(8, 0x5a);
  Writer info;
  info.str("secure-group");
  info.u64(42);
  row("BM_HkdfGroupKey", [&] {
    SecureBytes key_block(64);
    hkdf_sha256(secret, kGroupKeySalt, info.data(),
                {key_block.data(), key_block.size()});
    return key_block.size();
  });

  const Bytes aes_key(16, 0x22), iv(16, 0x33), plain(1024, 0xab);
  row("BM_Aes128CbcEncrypt/1024",
      [&] { return aes128_cbc_encrypt(aes_key, iv, plain).size(); });

  Drbg mr_rng(5, "bench");
  row("BM_MillerRabin512", [&] {
    return static_cast<std::size_t>(is_probable_prime(g512.p(), mr_rng, 8));
  });
}

}  // namespace
}  // namespace sgk

int main() {
  sgk::run_rows();
  return 0;
}
