// Zeroizing secret-byte storage.
//
// `SecureBytes` is the mandatory container for key material at rest: derived
// group-key blocks, KDF outputs and symmetric sub-keys. It wipes its storage
// on destruction, on move-from and on reassignment, so secrets do not linger
// in freed heap pages. Buffers up to kInlineCapacity bytes (every key this
// library derives) live inline in the object, which makes the wipe observable
// and keeps small secrets off the heap entirely.
//
// Comparison is deliberately not provided via operator==: compare secrets
// with ct_equal (constant time) only. gka_lint rule GKA001 enforces this.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace sgk {

/// Zeroes `len` bytes at `p` in a way the optimizer must not elide (a memset
/// followed by a compiler barrier that reads the memory). Safe on len == 0
/// with p == nullptr.
void secure_zero(void* p, std::size_t len) noexcept;

class SecureBytes {
 public:
  /// Secrets at or below this size (all session keys, 160-bit exponents and
  /// the 64-byte derived key block) are stored inline in the object.
  static constexpr std::size_t kInlineCapacity = 64;

  SecureBytes() noexcept = default;
  /// `n` zero bytes.
  explicit SecureBytes(std::size_t n);
  SecureBytes(const std::uint8_t* p, std::size_t n);
  /// Copies `b`; the caller still owns (and should wipe) the source.
  explicit SecureBytes(const Bytes& b);
  /// Adopts `b`'s contents and wipes the source buffer before returning, so
  /// the only live copy of the secret is the SecureBytes.
  explicit SecureBytes(Bytes&& b);

  SecureBytes(const SecureBytes& o);
  SecureBytes(SecureBytes&& o) noexcept;
  SecureBytes& operator=(const SecureBytes& o);
  SecureBytes& operator=(SecureBytes&& o) noexcept;
  ~SecureBytes();

  std::uint8_t* data() noexcept { return heap_ ? heap_ : inline_; }
  const std::uint8_t* data() const noexcept { return heap_ ? heap_ : inline_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  /// Zeroes the contents and releases storage; size() becomes 0.
  void wipe() noexcept;

  /// Explicit escape hatch: plain copy of [off, off+len) for APIs that take
  /// `Bytes` (cipher/MAC keys). The caller is responsible for wiping the
  /// returned buffer; prefer keeping material in SecureBytes.
  /// Throws std::out_of_range when the range does not fit.
  Bytes reveal(std::size_t off, std::size_t len) const;
  /// Plain copy of the whole buffer.
  Bytes reveal() const { return reveal(0, size_); }

  // Secrets are compared with ct_equal only.
  bool operator==(const SecureBytes&) const = delete;
  bool operator!=(const SecureBytes&) const = delete;

 private:
  void assign(const std::uint8_t* p, std::size_t n);

  std::size_t size_ = 0;
  std::uint8_t* heap_ = nullptr;  // nullptr while the inline buffer is used
  std::uint8_t inline_[kInlineCapacity] = {};
};

/// Constant-time equality; false on length mismatch without inspecting
/// contents (same contract as ct_equal(Bytes, Bytes)).
bool ct_equal(const SecureBytes& a, const SecureBytes& b);
bool ct_equal(const SecureBytes& a, const Bytes& b);
bool ct_equal(const Bytes& a, const SecureBytes& b);

}  // namespace sgk
