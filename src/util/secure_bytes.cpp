#include "util/secure_bytes.h"

#include <cstring>
#include <stdexcept>

namespace sgk {

void secure_zero(void* p, std::size_t len) noexcept {
  if (len == 0) return;
  std::memset(p, 0, len);
  // The empty asm takes `p` and clobbers memory, so the compiler must assume
  // the zeroed bytes are read afterwards and cannot drop the memset as a
  // dead store (the same barrier as glibc's explicit_bzero).
  __asm__ __volatile__("" : : "r"(p) : "memory");
}

SecureBytes::SecureBytes(std::size_t n) { assign(nullptr, n); }

SecureBytes::SecureBytes(const std::uint8_t* p, std::size_t n) { assign(p, n); }

SecureBytes::SecureBytes(const Bytes& b) { assign(b.data(), b.size()); }

SecureBytes::SecureBytes(Bytes&& b) {
  assign(b.data(), b.size());
  secure_zero(b.data(), b.size());
  b.clear();
}

SecureBytes::SecureBytes(const SecureBytes& o) { assign(o.data(), o.size_); }

SecureBytes::SecureBytes(SecureBytes&& o) noexcept {
  assign(o.data(), o.size_);
  o.wipe();
}

SecureBytes& SecureBytes::operator=(const SecureBytes& o) {
  if (this != &o) {
    wipe();
    assign(o.data(), o.size_);
  }
  return *this;
}

SecureBytes& SecureBytes::operator=(SecureBytes&& o) noexcept {
  if (this != &o) {
    wipe();
    assign(o.data(), o.size_);
    o.wipe();
  }
  return *this;
}

SecureBytes::~SecureBytes() { wipe(); }

void SecureBytes::wipe() noexcept {
  if (heap_ != nullptr) {
    secure_zero(heap_, size_);
    delete[] heap_;
    heap_ = nullptr;
  } else {
    secure_zero(inline_, sizeof(inline_));
  }
  size_ = 0;
}

Bytes SecureBytes::reveal(std::size_t off, std::size_t len) const {
  if (off > size_ || len > size_ - off)
    throw std::out_of_range("SecureBytes::reveal: range outside buffer");
  const std::uint8_t* p = data() + off;
  return Bytes(p, p + len);
}

void SecureBytes::assign(const std::uint8_t* p, std::size_t n) {
  std::uint8_t* dst = inline_;
  if (n > kInlineCapacity) {
    heap_ = new std::uint8_t[n];
    dst = heap_;
  }
  if (p != nullptr) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = p[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
  }
  size_ = n;
}

namespace {
bool ct_equal_raw(const std::uint8_t* a, std::size_t an, const std::uint8_t* b,
                  std::size_t bn) {
  if (an != bn) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < an; ++i) acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  return acc == 0;
}
}  // namespace

bool ct_equal(const SecureBytes& a, const SecureBytes& b) {
  return ct_equal_raw(a.data(), a.size(), b.data(), b.size());
}

bool ct_equal(const SecureBytes& a, const Bytes& b) {
  return ct_equal_raw(a.data(), a.size(), b.data(), b.size());
}

bool ct_equal(const Bytes& a, const SecureBytes& b) {
  return ct_equal_raw(a.data(), a.size(), b.data(), b.size());
}

}  // namespace sgk
