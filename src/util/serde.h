// Minimal binary serialization used for wire messages.
//
// All integers are big-endian. Variable-length fields are length-prefixed
// with u32. Decoding is bounds-checked; malformed input throws DecodeError.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace sgk {

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// A length prefix inconsistent with its payload or above a caller-imposed
/// cap (Reader::count). Distinct from plain truncation so validated decoders
/// can report a typed kBadLength rejection.
class LengthError : public DecodeError {
 public:
  explicit LengthError(const std::string& what) : DecodeError(what) {}
};

/// Appends encoded fields to an internal buffer.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed byte string.
  void bytes(const Bytes& v);
  /// Length-prefixed field of `n` zero bytes, returned for the caller to
  /// fill in place. The span is valid until the next write.
  std::span<std::uint8_t> field(std::size_t n);
  /// Length-prefixed UTF-8/ASCII string.
  void str(std::string_view v);
  /// Raw bytes without a length prefix (caller knows the framing).
  void raw(const Bytes& v);

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Reads fields back in the order they were written.
class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes bytes();
  /// The next length-prefixed byte string, as a view into the buffer being
  /// read (no copy); bounds-checked like bytes().
  std::span<const std::uint8_t> bytes_view();
  std::string str();

  /// Next byte without consuming it.
  std::uint8_t peek_u8() const;
  /// u32 element count, bounds-checked against both `cap` and the bytes
  /// actually left (each element occupies at least one byte), so a hostile
  /// length prefix cannot drive a huge allocation or loop.
  std::uint32_t count(std::uint32_t cap);
  /// Throws unless every byte has been consumed. Validated decoders call
  /// this last so trailing garbage is rejected, not ignored.
  void expect_done() const;

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const;

  const Bytes& data_;
  std::size_t pos_ = 0;
};

}  // namespace sgk
