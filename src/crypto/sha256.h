// SHA-256 (FIPS 180-4).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace sgk {

/// Incremental SHA-256. Also provides the one-shot convenience function.
///
/// Contract: a hash is finished once. After finish() or finish_into() the
/// object must not be updated or finished again (reconstruct, or copy a
/// saved state, for a new hash). A copy of an unfinished object is an
/// independent hash that resumes from the same point. The object never
/// wipes itself; the callers that feed it key bytes (HMAC, HKDF,
/// SecureGroupMember::key_fingerprint, the DRBG seeding) call wipe()
/// before its storage is released.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;
  /// The chaining state: eight 32-bit words.
  using State = std::array<std::uint32_t, 8>;

  static constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                          0xa54ff53a, 0x510e527f, 0x9b05688c,
                                          0x1f83d9ab, 0x5be0cd19};

  Sha256() : state_(kInitialState) {}

  /// Resumes a hash after its first block, which left the chaining state
  /// `midstate`. HMAC resumes from its keyed midstates so.
  explicit Sha256(const State& midstate)
      : state_(midstate), total_len_(kBlockSize) {}

  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }

  /// Finalizes and returns the 32-byte digest.
  Bytes finish();

  /// Finalizes into `out` without allocating: the 0x80 byte, the zero fill
  /// and the 64-bit length go straight into the block buffer, then one or
  /// two compressions run. finish() is this plus the copy into `Bytes`.
  void finish_into(Digest& out);

  /// Zeroes the chaining state, the block buffer and the length.
  void wipe() noexcept;

  /// One-shot digest.
  static Bytes digest(const Bytes& data);

  /// The compression function: absorbs one 64-byte block into `state`.
  /// Usable in constant expressions, so a public key block can be absorbed
  /// at compile time (see HkdfSalt in hmac.h).
  static constexpr void compress(State& state, const std::uint8_t* block);

 private:
  static constexpr std::array<std::uint32_t, 64> kRound = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

  static constexpr std::uint32_t rotr(std::uint32_t x, int n) {
    return x >> n | x << (32 - n);
  }

  State state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

constexpr void Sha256::compress(State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace sgk
