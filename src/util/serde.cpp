#include "util/serde.h"

namespace sgk {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void Writer::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void Writer::bytes(const Bytes& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

std::span<std::uint8_t> Writer::field(std::size_t n) {
  u32(static_cast<std::uint32_t>(n));
  const std::size_t start = buf_.size();
  buf_.resize(start + n);
  return {buf_.data() + start, n};
}

void Writer::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::raw(const Bytes& v) { buf_.insert(buf_.end(), v.begin(), v.end()); }

void Reader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) throw DecodeError("truncated message");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 8;
  return v;
}

std::uint8_t Reader::peek_u8() const {
  need(1);
  return data_[pos_];
}

std::uint32_t Reader::count(std::uint32_t cap) {
  const std::uint32_t n = u32();
  if (n > cap) throw LengthError("list length exceeds limit");
  if (n > remaining()) throw LengthError("list length exceeds payload");
  return n;
}

void Reader::expect_done() const {
  if (pos_ != data_.size()) throw DecodeError("trailing bytes");
}

Bytes Reader::bytes() {
  const std::span<const std::uint8_t> v = bytes_view();
  return Bytes(v.begin(), v.end());
}

std::span<const std::uint8_t> Reader::bytes_view() {
  std::uint32_t n = u32();
  need(n);
  const std::span<const std::uint8_t> out(data_.data() + pos_, n);
  pos_ += n;
  return out;
}

std::string Reader::str() {
  std::uint32_t n = u32();
  need(n);
  std::string out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace sgk
