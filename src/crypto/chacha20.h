// ChaCha20 block function and keystream (RFC 8439).
//
// Used both as a stream primitive in tests and as the core of the library's
// deterministic random bit generator (drbg.h).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace sgk {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kBlockSize = 64;

  /// Throws std::invalid_argument on wrong key/nonce sizes.
  ChaCha20(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
           std::uint32_t counter = 0);
  /// Wipes the key words and the buffered keystream.
  ~ChaCha20();

  /// Writes the next `out.size()` keystream bytes into `out`.
  void keystream(std::span<std::uint8_t> out);

  /// XORs the next `data.size()` keystream bytes into `data` in place
  /// (encrypt == decrypt).
  void process(std::span<std::uint8_t> data);

 private:
  void refill();

  std::array<std::uint32_t, 16> state_;
  std::array<std::uint8_t, kBlockSize> block_;
  std::size_t block_pos_ = kBlockSize;  // forces refill on first use
};

}  // namespace sgk
