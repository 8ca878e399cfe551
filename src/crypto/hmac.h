// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// HMAC is keyed once per key: the padded key block is absorbed as K ^ ipad
// and K ^ opad into two SHA-256 midstates, and every MAC under the key
// resumes from them (RFC 2104 section 4). HKDF extracts under its keyed
// salt and keys the PRK once for all of its expand blocks.
//
// A salt is public (RFC 5869 section 3.1), and so are its midstates. A
// constant salt is keyed once, at compile time, as a constexpr HkdfSalt; an
// HkdfSalt holds nothing secret and is never wiped.
//
// No secret-derived intermediate outlives a call. The padded key block, the
// midstates of an HMAC key or PRK, every working state resumed from any
// midstate, the inner digests, the PRK and each T(i) live in fixed-size
// storage and are wiped before the call returns, and nothing of them is
// heap-allocated. The `Bytes`-salt overload of hkdf_sha256 wipes its salt's
// midstates too. Only the MAC or output key material leaves the call;
// wiping a returned `Bytes` is the caller's job.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace sgk {

/// HMAC-SHA256 keyed once (RFC 2104 section 4): the SHA-256 chaining
/// states after absorbing K ^ ipad and after absorbing K ^ opad.
struct HmacMidstates {
  Sha256::State inner;
  Sha256::State outer;
};

/// Keys HMAC-SHA256 with `block`, the key zero-padded to one block (a key
/// longer than a block is hashed first, RFC 2104 section 2). The pads are
/// XORed into `block` in place, which is left holding K ^ opad: a caller
/// keying with a secret wipes it afterwards.
constexpr void hmac_key_block(std::array<std::uint8_t, Sha256::kBlockSize>& block,
                              HmacMidstates& out) {
  for (std::uint8_t& b : block) b ^= 0x36;
  out.inner = Sha256::kInitialState;
  Sha256::compress(out.inner, block.data());
  for (std::uint8_t& b : block) b ^= 0x36 ^ 0x5c;
  out.outer = Sha256::kInitialState;
  Sha256::compress(out.outer, block.data());
}

/// An HKDF salt keyed once: the HMAC-SHA256 midstates under the salt. An
/// empty salt is the RFC's default of 32 zero bytes (both pad to the same
/// all-zero key block).
class HkdfSalt {
 public:
  /// Keys a constant salt of at most one block at compile time:
  /// `constexpr HkdfSalt kSalt("label");`.
  consteval explicit HkdfSalt(std::string_view salt) {
    if (salt.size() > Sha256::kBlockSize)
      throw std::invalid_argument("HkdfSalt: a constant salt is at most one block");
    std::array<std::uint8_t, Sha256::kBlockSize> block{};
    for (std::size_t i = 0; i < salt.size(); ++i)
      block[i] = static_cast<std::uint8_t>(salt[i]);
    hmac_key_block(block, midstates_);
  }

  /// Keys `salt` at run time; a salt longer than a block is hashed first.
  explicit HkdfSalt(const Bytes& salt);

  const HmacMidstates& midstates() const { return midstates_; }

 private:
  HmacMidstates midstates_;
};

/// HMAC-SHA256 of `data` under `key`.
Bytes hmac_sha256(const Bytes& key, const Bytes& data);

/// HKDF-SHA256 extract-then-expand under a keyed salt, filling `out` (at
/// most 8160 bytes). `out` is the caller's zeroizing storage, such as a
/// SecureBytes, so the output key material is never in a plain buffer.
void hkdf_sha256(std::span<const std::uint8_t> ikm, const HkdfSalt& salt,
                 std::span<const std::uint8_t> info, std::span<std::uint8_t> out);

/// The same with `salt` keyed for this call only. An empty `salt` is the
/// RFC's default of 32 zero bytes.
Bytes hkdf_sha256(const Bytes& ikm, const Bytes& salt, const Bytes& info,
                  std::size_t out_len);

}  // namespace sgk
