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
/// independent hash that resumes from the same point; HMAC keeps its keyed
/// midstates this way. The object never wipes itself; the callers that feed
/// it key bytes (HMAC, HKDF, SecureGroupMember::key_fingerprint) call wipe()
/// before its storage is released.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

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

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace sgk
