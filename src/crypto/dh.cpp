#include "crypto/dh.h"

#include <utility>

#include "bignum/modmath.h"
#include "util/check.h"

namespace sgk {

namespace {
// 512-bit p, 160-bit q, generator of the order-q subgroup.
constexpr const char* kP512 =
    "a8cb47671bf5d74c5ba7e3a079165690f7caed445170287bad497b312a4f6773"
    "3a128d309acb6678ab98b09b914d2c077b771265d2ece2b7761e2009b6b114e5";
constexpr const char* kQ512 = "d17977a5656e7ef6ea1a65eb9406b483d7b489a3";
constexpr const char* kG512 =
    "2601c75d95634ab6957e79893b86a2525a011500c8298cde492ab8a6dea28ffb"
    "eb071d6b86d165170f849180000d0298d11250cdb2c32ea59a71295882bde66f";

// 1024-bit p, 160-bit q.
constexpr const char* kP1024 =
    "bfb8568597836ebbbcdd47b08d2c5d8bfe842e754560d47d874fdc094091da3e"
    "e1127033b99519e886e2d2f6c90a0271d217c14359025103d886ac539957bd87"
    "5e1c7c6e359f57c9d683d2af07ed73334c774e628aa6edc623f088b6c547217a"
    "c41fa8080c8e04fb36bdc144cecadf91cbe8ca4b9b0e892476d5c7575173b735";
constexpr const char* kQ1024 = "fce3ac8303705887d0eb97b18df571a3be8d9c27";
constexpr const char* kG1024 =
    "5b805cb48036103c8694982af862fb709d06bd33453ca9ba5b06cf47f792e748"
    "35d39807628f5cdfd9c0aa81a626dfe3fe6f70ee80edcaeaa38ecfb02044f51d"
    "1e2f3d96b92a777e124e7b6050222f0763bc73afaae4cff59d09a0b025f67366"
    "977a56358caeeff2d53b766819f4f709161260adade1827b2467a5192a55d583";
}  // namespace

DhGroup::DhGroup(BigInt p, BigInt q, BigInt g)
    : p_(std::move(p)),
      q_(std::move(q)),
      g_(std::move(g)),
      ctx_(p_, q_.bit_length(), g_),
      public_ctx_(p_) {
  SGK_CHECK((p_ - BigInt(1)) % q_ == BigInt(0));
  // q is public; checking on public_ctx_ leaves the comb table unbuilt
  // until the first secret g^x.
  SGK_CHECK(public_ctx_.exp(g_, q_) == BigInt(1));
  SGK_CHECK(g_ != BigInt(1));
}

BigInt DhGroup::exp(const BigInt& base, const BigInt& e) const {
  return ctx_.exp(base, e);
}

BigInt DhGroup::exp_g(const BigInt& e) const { return ctx_.exp(g_, e); }

BigInt DhGroup::exp_public(const BigInt& base, const BigInt& e) const {
  return public_ctx_.exp(base, e);
}

BigInt DhGroup::mul(const BigInt& a, const BigInt& b) const {
  return ctx_.mul(a, b);
}

BigInt DhGroup::inverse_q(const BigInt& a) const {
  return mod_inverse(a, q_);
}

SecureBigInt DhGroup::random_exponent(RandomSource& rng) const {
  for (;;) {
    BigInt e = BigInt::random_below(q_, rng);
    if (!e.is_zero()) return SecureBigInt(std::move(e));
  }
}

BigInt DhGroup::to_exponent(const BigInt& value) const {
  BigInt e = value % q_;
  // Zero is not a valid exponent; 1 is a safe stand-in (never happens for
  // honestly generated group elements, but keeps the map total).
  if (e.is_zero()) return BigInt(1);
  return e;
}

const DhGroup& dh_group(DhBits bits) {
  static const DhGroup group512(BigInt::from_hex(kP512), BigInt::from_hex(kQ512),
                                BigInt::from_hex(kG512));
  static const DhGroup group1024(BigInt::from_hex(kP1024),
                                 BigInt::from_hex(kQ1024),
                                 BigInt::from_hex(kG1024));
  return bits == DhBits::k512 ? group512 : group1024;
}

}  // namespace sgk
