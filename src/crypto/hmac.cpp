#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/sha256.h"
#include "util/secure_bytes.h"

namespace sgk {

namespace {

// A SHA-256 state that has absorbed key-derived bytes, wiped on scope exit.
struct SecretSha256 : Sha256 {
  ~SecretSha256() { wipe(); }
};

// Key-derived bytes of a fixed size, wiped on scope exit.
template <std::size_t N>
struct SecretArray : std::array<std::uint8_t, N> {
  ~SecretArray() { secure_zero(this->data(), N); }
};

// HMAC-SHA256 keyed once (RFC 2104 section 4): the states after absorbing
// K ^ ipad and K ^ opad. Every MAC under the key resumes from copies of
// them, so the key costs its two compressions once, not once per MAC.
class HmacKey {
 public:
  HmacKey(const std::uint8_t* key, std::size_t len) {
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
    for (std::uint8_t& b : block) b ^= 0x36;
    inner_.update(block.data(), block.size());
    for (std::uint8_t& b : block) b ^= 0x36 ^ 0x5c;
    outer_.update(block.data(), block.size());
  }
  HmacKey(const HmacKey&) = delete;
  HmacKey& operator=(const HmacKey&) = delete;

  /// The inner hash of a new MAC, positioned after K ^ ipad.
  SecretSha256 start() const { return inner_; }

  /// Finishes the MAC begun by start(): out = H(K ^ opad || H(inner)).
  void finish(SecretSha256& inner, Sha256::Digest& out) const {
    inner.finish_into(out);
    SecretSha256 outer = outer_;
    outer.update(out.data(), out.size());
    outer.finish_into(out);
  }

 private:
  SecretSha256 inner_;
  SecretSha256 outer_;
};

}  // namespace

Bytes hmac_sha256(const Bytes& key, const Bytes& data) {
  const HmacKey k(key.data(), key.size());
  SecretSha256 h = k.start();
  h.update(data.data(), data.size());
  SecretArray<Sha256::kDigestSize> mac;
  k.finish(h, mac);
  return Bytes(mac.begin(), mac.end());
}

Bytes hkdf_sha256(const Bytes& ikm, const Bytes& salt, const Bytes& info,
                  std::size_t out_len) {
  if (out_len > 255 * Sha256::kDigestSize)
    throw std::invalid_argument("hkdf_sha256: output too long");
  Bytes out(out_len);

  // Extract. An absent salt means HashLen zero bytes (RFC 5869 section
  // 2.2); both pad to the same all-zero key block, so the empty salt is
  // used as is.
  SecretArray<Sha256::kDigestSize> prk;
  {
    const HmacKey extract(salt.data(), salt.size());
    SecretSha256 h = extract.start();
    h.update(ikm.data(), ikm.size());
    extract.finish(h, prk);
  }

  // Expand: T(i) = HMAC(PRK, T(i-1) || info || i), under one keyed PRK.
  const HmacKey expand(prk.data(), prk.size());
  SecretArray<Sha256::kDigestSize> t;
  for (std::size_t off = 0, i = 1; off < out_len; off += t.size(), ++i) {
    SecretSha256 h = expand.start();
    if (off > 0) h.update(t.data(), t.size());
    h.update(info.data(), info.size());
    const auto counter = static_cast<std::uint8_t>(i);
    h.update(&counter, 1);
    expand.finish(h, t);
    std::memcpy(out.data() + off, t.data(), std::min(t.size(), out_len - off));
  }
  return out;
}

}  // namespace sgk
