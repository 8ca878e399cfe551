#include "crypto/sha256.h"

#include <cstring>

#include "util/secure_bytes.h"

namespace sgk {

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  total_len_ += len;
  while (len > 0) {
    std::size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      compress(state_, buffer_.data());
      buffer_len_ = 0;
    }
  }
}

void Sha256::finish_into(Digest& out) {
  const std::uint64_t bit_len = total_len_ * 8;
  // buffer_len_ < kBlockSize here: update() compresses every full block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    compress(state_, buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[kBlockSize - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress(state_, buffer_.data());

  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
}

Bytes Sha256::finish() {
  Digest out;
  finish_into(out);
  return Bytes(out.begin(), out.end());
}

void Sha256::wipe() noexcept {
  // One barrier over the whole object: state, buffer and both lengths.
  secure_zero(this, sizeof(*this));
}

Bytes Sha256::digest(const Bytes& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace sgk
