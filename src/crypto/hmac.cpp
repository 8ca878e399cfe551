#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>

#include "util/secure_bytes.h"

namespace sgk {

namespace {

// A SHA-256 state that has absorbed secret-derived bytes, wiped on scope
// exit.
struct SecretSha256 : Sha256 {
  using Sha256::Sha256;
  ~SecretSha256() { wipe(); }
};

// Secret-derived bytes of a fixed size, wiped on scope exit.
template <std::size_t N>
struct SecretArray : std::array<std::uint8_t, N> {
  ~SecretArray() { secure_zero(this->data(), N); }
};

// The midstates of a secret HMAC key (a MAC key, a PRK), wiped on scope
// exit.
struct SecretMidstates : HmacMidstates {
  ~SecretMidstates() { secure_zero(this, sizeof(*this)); }
};

// Keys HMAC with `len` bytes at `key` (RFC 2104 section 2).
void key_hmac(const std::uint8_t* key, std::size_t len, HmacMidstates& out) {
  SecretArray<Sha256::kBlockSize> block{};
  if (len > Sha256::kBlockSize) {
    SecretSha256 h;
    h.update(key, len);
    SecretArray<Sha256::kDigestSize> digest;
    h.finish_into(digest);
    std::memcpy(block.data(), digest.data(), digest.size());
  } else if (len > 0) {
    std::memcpy(block.data(), key, len);
  }
  hmac_key_block(block, out);
}

// Finishes the MAC whose inner hash resumed from key.inner:
// out = H(K ^ opad || H(inner)).
void finish_mac(const HmacMidstates& key, SecretSha256& inner,
                Sha256::Digest& out) {
  inner.finish_into(out);
  SecretSha256 outer(key.outer);
  outer.update(out.data(), out.size());
  outer.finish_into(out);
}

void check_output_length(std::size_t out_len) {
  if (out_len > 255 * Sha256::kDigestSize)
    throw std::invalid_argument("hkdf_sha256: output too long");
}

// HKDF-SHA256 under the keyed salt `salt` into `out`; both overloads.
void hkdf_into(std::span<const std::uint8_t> ikm, const HmacMidstates& salt,
               std::span<const std::uint8_t> info, std::span<std::uint8_t> out) {
  // Extract: PRK = HMAC(salt, IKM), zero-padded to the PRK's key block.
  SecretArray<Sha256::kBlockSize> block{};
  {
    SecretSha256 h(salt.inner);
    h.update(ikm.data(), ikm.size());
    SecretArray<Sha256::kDigestSize> prk;
    finish_mac(salt, h, prk);
    std::memcpy(block.data(), prk.data(), prk.size());
  }

  // Expand: T(i) = HMAC(PRK, T(i-1) || info || i), under one keyed PRK.
  SecretMidstates prk;
  hmac_key_block(block, prk);
  SecretArray<Sha256::kDigestSize> t;
  for (std::size_t off = 0, i = 1; off < out.size(); off += t.size(), ++i) {
    SecretSha256 h(prk.inner);
    if (off > 0) h.update(t.data(), t.size());
    h.update(info.data(), info.size());
    const auto counter = static_cast<std::uint8_t>(i);
    h.update(&counter, 1);
    finish_mac(prk, h, t);
    std::memcpy(out.data() + off, t.data(),
                std::min(t.size(), out.size() - off));
  }
}

}  // namespace

HkdfSalt::HkdfSalt(const Bytes& salt) {
  key_hmac(salt.data(), salt.size(), midstates_);
}

Bytes hmac_sha256(const Bytes& key, const Bytes& data) {
  SecretMidstates k;
  key_hmac(key.data(), key.size(), k);
  SecretSha256 h(k.inner);
  h.update(data.data(), data.size());
  SecretArray<Sha256::kDigestSize> mac;
  finish_mac(k, h, mac);
  return Bytes(mac.begin(), mac.end());
}

void hkdf_sha256(std::span<const std::uint8_t> ikm, const HkdfSalt& salt,
                 std::span<const std::uint8_t> info, std::span<std::uint8_t> out) {
  check_output_length(out.size());
  hkdf_into(ikm, salt.midstates(), info, out);
}

Bytes hkdf_sha256(const Bytes& ikm, const Bytes& salt, const Bytes& info,
                  std::size_t out_len) {
  check_output_length(out_len);
  Bytes out(out_len);
  SecretMidstates keyed_salt;
  key_hmac(salt.data(), salt.size(), keyed_salt);
  hkdf_into(ikm, keyed_salt, info, out);
  return out;
}

}  // namespace sgk
