// paramgen: regenerates the fixed cryptographic parameters shipped in
// src/crypto (Schnorr DH groups and RSA test keys) using this library's own
// prime generation. This documents the provenance of the hard-coded
// constants and lets a downstream user mint fresh ones.
//
// Usage:
//   paramgen dh <p_bits> <q_bits> [seed]     # Schnorr group (p, q, g)
//   paramgen rsa <bits> [count] [seed]       # RSA keys with e=3
#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "bignum/prime.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"

namespace {

// A decimal value and nothing else: no sign, no trailing characters, and
// no overflow of T.
template <typename T>
bool parse_uint(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

void emit_dh(std::size_t p_bits, std::size_t q_bits, std::uint64_t seed) {
  sgk::Drbg rng(seed, "paramgen-dh");
  sgk::SchnorrGroup grp = sgk::generate_schnorr_group(p_bits, q_bits, rng);
  std::cout << "// Schnorr group: " << p_bits << "-bit p, " << q_bits
            << "-bit q (seed " << seed << ")\n";
  std::cout << "P = \"" << grp.p.to_hex() << "\"\n";
  std::cout << "Q = \"" << grp.q.to_hex() << "\"\n";
  std::cout << "G = \"" << grp.g.to_hex() << "\"\n";
  // Self-check the subgroup structure before anyone pastes these anywhere.
  if ((grp.p - sgk::BigInt(1)) % grp.q != sgk::BigInt(0) ||
      sgk::MontgomeryCtx(grp.p).exp(grp.g, grp.q) != sgk::BigInt(1)) {
    std::cerr << "self-check FAILED\n";
    std::exit(1);
  }
  std::cout << "// self-check ok: q | p-1 and g^q = 1 (mod p)\n";
}

void emit_rsa(std::size_t bits, std::size_t count, std::uint64_t seed) {
  sgk::Drbg rng(seed, "paramgen-rsa");
  for (std::size_t i = 0; i < count; ++i) {
    sgk::RsaPrivateKey key = sgk::RsaPrivateKey::generate(bits, rng);
    std::cout << "// RSA-" << bits << " key " << i << " (e=3, seed " << seed
              << ")\n";
    std::cout << "N = \"" << key.public_key().n().to_hex() << "\"\n";
    sgk::Bytes probe = sgk::str_bytes("paramgen self check");
    if (!key.public_key().verify(probe, key.sign(probe))) {
      std::cerr << "self-check FAILED\n";
      std::exit(1);
    }
    std::cout << "// self-check ok: sign/verify round trip\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Sizes the generators accept: q of at least 8 bits and p at least 16 bits
  // longer (generate_schnorr_group); an even RSA modulus of 512 bits or more.
  std::size_t p_bits = 0, q_bits = 0, bits = 0, count = 1;
  std::uint64_t seed = 0;
  if (argc >= 4 && argc <= 5 && std::strcmp(argv[1], "dh") == 0 &&
      parse_uint(argv[2], p_bits) && parse_uint(argv[3], q_bits) &&
      (argc < 5 || parse_uint(argv[4], seed)) && q_bits >= 8 &&
      p_bits >= 16 && q_bits <= p_bits - 16) {
    emit_dh(p_bits, q_bits, argc > 4 ? seed : 20020423);
    return 0;
  }
  if (argc >= 3 && argc <= 5 && std::strcmp(argv[1], "rsa") == 0 &&
      parse_uint(argv[2], bits) && (argc < 4 || parse_uint(argv[3], count)) &&
      (argc < 5 || parse_uint(argv[4], seed)) && bits >= 512 &&
      bits % 2 == 0 && count >= 1) {
    emit_rsa(bits, count, argc > 4 ? seed : 19770426);
    return 0;
  }
  std::cerr << "usage:\n  paramgen dh <p_bits> <q_bits> [seed]"
               "     (q_bits >= 8, p_bits >= q_bits + 16)\n"
               "  paramgen rsa <bits> [count] [seed]"
               "       (bits >= 512 and even, count >= 1)\n";
  return 2;
}
