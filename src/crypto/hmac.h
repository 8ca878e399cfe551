// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// Each call keys HMAC once: the padded key block is absorbed as K ^ ipad
// and K ^ opad into two SHA-256 midstates, and every MAC of the call resumes
// from copies of them (RFC 2104 section 4). HKDF keys the salt once for
// extract and the PRK once for all of its expand blocks.
//
// No key-derived intermediate outlives a call. The padded key block, both
// midstates and their working copies, the inner digests, the PRK and each
// T(i) live in fixed-size storage and are wiped before the call returns,
// and nothing of them is heap-allocated. Only the returned MAC or output
// key material leaves the call; wiping that is the caller's job.
#pragma once

#include "util/bytes.h"

namespace sgk {

/// HMAC-SHA256 of `data` under `key`.
Bytes hmac_sha256(const Bytes& key, const Bytes& data);

/// HKDF-SHA256 extract-then-expand producing `out_len` bytes (<= 8160).
/// An empty `salt` is the RFC's default of 32 zero bytes.
Bytes hkdf_sha256(const Bytes& ikm, const Bytes& salt, const Bytes& info,
                  std::size_t out_len);

}  // namespace sgk
