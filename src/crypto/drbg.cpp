#include "crypto/drbg.h"

#include <array>

#include "crypto/sha256.h"
#include "util/secure_bytes.h"

namespace sgk {

namespace {
// The stream keyed by SHA-256(seed || label). The seed bytes, the hash
// state and the key are wiped before this returns; the ChaCha20 state holds
// the key words and wipes them itself.
ChaCha20 make_stream(std::uint64_t seed, std::string_view label) {
  std::array<std::uint8_t, 8> seed_bytes;
  for (int i = 0; i < 8; ++i)
    seed_bytes[i] = static_cast<std::uint8_t>(seed >> (56 - 8 * i));
  Sha256 h;
  h.update(seed_bytes.data(), seed_bytes.size());
  h.update(reinterpret_cast<const std::uint8_t*>(label.data()), label.size());
  Sha256::Digest key;
  h.finish_into(key);
  h.wipe();
  secure_zero(seed_bytes.data(), seed_bytes.size());
  const std::array<std::uint8_t, ChaCha20::kNonceSize> nonce{};
  ChaCha20 stream(key, nonce);
  secure_zero(key.data(), key.size());
  return stream;
}
}  // namespace

Drbg::Drbg(std::uint64_t seed, std::string_view label)
    : stream_(make_stream(seed, label)) {}

void Drbg::fill(std::uint8_t* out, std::size_t len) {
  stream_.keystream({out, len});
  bytes_generated_ += len;
}

std::uint64_t Drbg::next_u64(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound) - 1;
  for (;;) {
    std::uint8_t buf[8];
    fill(buf, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = v << 8 | buf[i];
    if (v <= limit) return v % bound;
  }
}

double Drbg::next_double() {
  std::uint8_t buf[8];
  fill(buf, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | buf[i];
  return static_cast<double>(v >> 11) * (1.0 / 9007199254740992.0);
}

Drbg Drbg::fork(std::string_view label) {
  std::uint8_t buf[8];
  fill(buf, 8);
  std::uint64_t child_seed = 0;
  for (int i = 0; i < 8; ++i) child_seed = child_seed << 8 | buf[i];
  return Drbg(child_seed, label);
}

}  // namespace sgk
