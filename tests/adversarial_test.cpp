// Adversarial wire corpus: hand-crafted hostile frames through every
// protocol's validate_and_decode entrypoint, KeyTree decode edge cases, and
// secure-group-level injection tests asserting the tentpole invariant — a
// hostile frame dies as a typed rejection and the group still converges.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/bd.h"
#include "core/ckd.h"
#include "core/gdh.h"
#include "core/key_tree.h"
#include "core/str.h"
#include "core/tgdh.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "obs/metrics.h"
#include "tests/protocol_harness.h"
#include "util/check.h"
#include "util/serde.h"

namespace sgk {
namespace {

using testing::ProtocolFixture;

const BigInt& P() { return dh_group(DhBits::k512).p(); }
const BigInt& G() { return dh_group(DhBits::k512).g(); }

Bytes bigint_body(std::uint8_t tag, const BigInt& v) {
  Writer w;
  w.u8(tag);
  put_bigint(w, v);
  return w.take();
}

Bytes truncate(Bytes b, std::size_t n = 1) {
  SGK_CHECK(n <= b.size());
  b.erase(b.end() - static_cast<std::ptrdiff_t>(n), b.end());
  return b;
}

Bytes extend(Bytes b, std::uint8_t extra = 0x00) {
  b.push_back(extra);
  return b;
}

// ---------------------------------------------------------------------------
// GDH

TEST(GdhCorpus, EmptyAndUnknownTag) {
  EXPECT_EQ(GdhProtocol::validate_and_decode({}, P()).reason,
            RejectReason::kTruncated);
  EXPECT_EQ(GdhProtocol::validate_and_decode({9}, P()).reason,
            RejectReason::kBadTag);
}

TEST(GdhCorpus, AccumRoundTripAndMutations) {
  const Bytes ok = bigint_body(GdhProtocol::kAccum, G());
  EXPECT_TRUE(GdhProtocol::validate_and_decode(ok, P()).ok());
  EXPECT_EQ(GdhProtocol::validate_and_decode(truncate(ok), P()).reason,
            RejectReason::kTruncated);
  EXPECT_EQ(GdhProtocol::validate_and_decode(extend(ok), P()).reason,
            RejectReason::kTrailingBytes);
}

TEST(GdhCorpus, OutOfRangeBignums) {
  for (const BigInt& v :
       {BigInt(0), BigInt(1), P() - BigInt(1), P(), P() + BigInt(5)}) {
    EXPECT_EQ(
        GdhProtocol::validate_and_decode(bigint_body(GdhProtocol::kAccum, v), P())
            .reason,
        RejectReason::kBignumRange);
    EXPECT_EQ(GdhProtocol::validate_and_decode(
                  bigint_body(GdhProtocol::kFactorOut, v), P())
                  .reason,
              RejectReason::kBignumRange);
  }
}

TEST(GdhCorpus, TokenEmptyChainAndLyingListLength) {
  Writer empty_chain;
  empty_chain.u8(GdhProtocol::kToken);
  put_bigint(empty_chain, G());
  empty_chain.u32(0);  // done list
  empty_chain.u32(0);  // chain: a token must target at least one member
  EXPECT_EQ(GdhProtocol::validate_and_decode(empty_chain.take(), P()).reason,
            RejectReason::kBadLength);

  Writer lie;
  lie.u8(GdhProtocol::kToken);
  put_bigint(lie, G());
  lie.u32(0xffffffffu);  // done-list length far beyond the payload and cap
  EXPECT_EQ(GdhProtocol::validate_and_decode(lie.take(), P()).reason,
            RejectReason::kBadLength);
}

TEST(GdhCorpus, PartialsWithOutOfRangeEntry) {
  Writer w;
  w.u8(GdhProtocol::kPartials);
  w.u32(1);
  w.u32(7);  // order
  w.u32(1);
  w.u32(7);  // member
  put_bigint(w, BigInt(1));
  EXPECT_EQ(GdhProtocol::validate_and_decode(w.take(), P()).reason,
            RejectReason::kBignumRange);
}

// ---------------------------------------------------------------------------
// CKD

TEST(CkdCorpus, TagRangeTruncationAndLies) {
  EXPECT_EQ(CkdProtocol::validate_and_decode({0}, P()).reason,
            RejectReason::kBadTag);

  const Bytes ok = bigint_body(CkdProtocol::kResponse, G());
  EXPECT_TRUE(CkdProtocol::validate_and_decode(ok, P()).ok());
  EXPECT_EQ(CkdProtocol::validate_and_decode(
                bigint_body(CkdProtocol::kResponse, P()), P())
                .reason,
            RejectReason::kBignumRange);

  // A bignum length prefix claiming 64 bytes with none following: plain
  // truncation, not a length-prefix lie (the prefix is consistent with a
  // longer message that simply ended early).
  Writer cut;
  cut.u8(CkdProtocol::kChallenge);
  cut.u32(64);
  EXPECT_EQ(CkdProtocol::validate_and_decode(cut.take(), P()).reason,
            RejectReason::kTruncated);

  Writer lie;
  lie.u8(CkdProtocol::kKeyBcast);
  lie.u32(0xffffffffu);  // order-list length
  EXPECT_EQ(CkdProtocol::validate_and_decode(lie.take(), P()).reason,
            RejectReason::kBadLength);
}

TEST(CkdCorpus, KeyBcastWithOutOfRangeWrap) {
  Writer w;
  w.u8(CkdProtocol::kKeyBcast);
  w.u32(1);
  w.u32(3);  // order
  w.u32(1);
  w.u32(3);  // wrap target
  put_bigint(w, BigInt(0));
  EXPECT_EQ(CkdProtocol::validate_and_decode(w.take(), P()).reason,
            RejectReason::kBignumRange);
}

// ---------------------------------------------------------------------------
// TGDH (serialized KeyTree payloads)

Bytes tree_body(std::uint8_t tag, const KeyTree& t) {
  Writer w;
  w.u8(tag);
  t.serialize(w);
  return w.take();
}

TEST(TgdhCorpus, ValidLeafTreeRoundTrips) {
  const Bytes ok = tree_body(TgdhProtocol::kAnnounce, KeyTree::leaf(1));
  EXPECT_TRUE(TgdhProtocol::validate_and_decode(ok, P()).ok());
  EXPECT_EQ(TgdhProtocol::validate_and_decode(truncate(ok), P()).reason,
            RejectReason::kTruncated);
  EXPECT_EQ(TgdhProtocol::validate_and_decode(extend(ok), P()).reason,
            RejectReason::kTrailingBytes);
  EXPECT_EQ(TgdhProtocol::validate_and_decode({7}, P()).reason,
            RejectReason::kBadTag);
}

TEST(TgdhCorpus, HostileTreeShapes) {
  // Invalid node tag.
  EXPECT_EQ(TgdhProtocol::validate_and_decode({TgdhProtocol::kAnnounce, 7},
                                              P())
                .reason,
            RejectReason::kBadShape);

  // An unbounded run of internal-node tags recurses past the depth cap.
  Bytes deep(5001, 0x01);
  deep[0] = TgdhProtocol::kAnnounce;
  EXPECT_EQ(TgdhProtocol::validate_and_decode(deep, P()).reason,
            RejectReason::kBadShape);

  // Two leaves claiming the same member.
  Writer dup;
  dup.u8(TgdhProtocol::kAnnounce);
  dup.u8(1);  // internal
  for (int i = 0; i < 2; ++i) {
    dup.u8(0);  // leaf
    dup.u32(5);
    dup.u8(0);  // no bkey
  }
  dup.u8(0);  // internal node: no bkey
  EXPECT_EQ(TgdhProtocol::validate_and_decode(dup.take(), P()).reason,
            RejectReason::kBadShape);
}

TEST(TgdhCorpus, BlindedKeyOutOfRange) {
  Writer w;
  w.u8(TgdhProtocol::kUpdate);
  w.u8(0);  // leaf
  w.u32(1);
  w.u8(1);  // bkey present
  put_bigint(w, BigInt(1));
  EXPECT_EQ(TgdhProtocol::validate_and_decode(w.take(), P()).reason,
            RejectReason::kBignumRange);
}

// KeyTree::deserialize directly: the structural caps. (True cycles are not
// expressible in the recursive encoding — parent/child links are rebuilt —
// so the hostile-shape space is depth, node count, tags and duplicates.)
TEST(KeyTreeAdversarial, DepthCapKillsRecursiveBombs) {
  Bytes bomb(static_cast<std::size_t>(KeyTree::kMaxDepth) + 10, 0x01);
  Reader r(bomb);
  EXPECT_THROW(KeyTree::deserialize(r), TreeShapeError);
}

TEST(KeyTreeAdversarial, NodeCapKillsWideTrees) {
  // A balanced tree over more members than kMaxNodes can hold (n leaves =>
  // 2n-1 nodes) stays shallow, so only the node cap can stop it.
  Writer w;
  std::uint32_t next_member = 1;
  const std::function<void(std::uint32_t)> encode = [&](std::uint32_t leaves) {
    if (leaves == 1) {
      w.u8(0);
      w.u32(next_member++);
    } else {
      w.u8(1);
      encode(leaves / 2);
      encode(leaves - leaves / 2);
    }
    w.u8(0);  // no bkey
  };
  encode(static_cast<std::uint32_t>(KeyTree::kMaxNodes / 2 + 10));
  const Bytes body = w.take();
  Reader r(body);
  EXPECT_THROW(KeyTree::deserialize(r), TreeShapeError);
}

TEST(KeyTreeAdversarial, TruncationIsPlainDecodeError) {
  Writer w;
  KeyTree::leaf(3).serialize(w);
  const Bytes cut = truncate(w.take());
  Reader r(cut);
  EXPECT_THROW(KeyTree::deserialize(r), DecodeError);
}

// ---------------------------------------------------------------------------
// STR

TEST(StrCorpus, TagFlagsDuplicatesAndRange) {
  EXPECT_EQ(StrProtocol::validate_and_decode({0}, P()).reason,
            RejectReason::kBadTag);

  Writer ok;
  ok.u8(StrProtocol::kAnnounce);
  ok.u32(1);
  ok.u32(4);  // member
  ok.u8(1);   // br present
  put_bigint(ok, G());
  ok.u8(0);  // no bk
  const Bytes valid = ok.take();
  EXPECT_TRUE(StrProtocol::validate_and_decode(valid, P()).ok());
  EXPECT_EQ(StrProtocol::validate_and_decode(extend(valid), P()).reason,
            RejectReason::kTrailingBytes);

  Writer flag;
  flag.u8(StrProtocol::kAnnounce);
  flag.u32(1);
  flag.u32(4);
  flag.u8(2);  // presence flags are strictly 0/1
  EXPECT_EQ(StrProtocol::validate_and_decode(flag.take(), P()).reason,
            RejectReason::kBadTag);

  Writer dup;
  dup.u8(StrProtocol::kUpdate);
  dup.u32(2);
  for (int i = 0; i < 2; ++i) {
    dup.u32(9);  // same member twice
    dup.u8(0);
    dup.u8(0);
  }
  EXPECT_EQ(StrProtocol::validate_and_decode(dup.take(), P()).reason,
            RejectReason::kBadShape);

  Writer range;
  range.u8(StrProtocol::kAnnounce);
  range.u32(1);
  range.u32(4);
  range.u8(1);
  put_bigint(range, P() - BigInt(1));
  EXPECT_EQ(StrProtocol::validate_and_decode(range.take(), P()).reason,
            RejectReason::kBignumRange);

  Writer lie;
  lie.u8(StrProtocol::kAnnounce);
  lie.u32(0xffffffffu);
  EXPECT_EQ(StrProtocol::validate_and_decode(lie.take(), P()).reason,
            RejectReason::kBadLength);
}

// ---------------------------------------------------------------------------
// BD

TEST(BdCorpus, TagAndRangeRules) {
  EXPECT_EQ(BdProtocol::validate_and_decode({3}, P()).reason,
            RejectReason::kBadTag);
  EXPECT_TRUE(
      BdProtocol::validate_and_decode(bigint_body(BdProtocol::kZ, G()), P())
          .ok());
  EXPECT_EQ(BdProtocol::validate_and_decode(bigint_body(BdProtocol::kZ, BigInt(1)),
                                            P())
                .reason,
            RejectReason::kBignumRange);
  // X_i = (z_{i+1}/z_{i-1})^{r_i} is legitimately 1 in two-member groups
  // (the neighbors coincide), so kX admits 1 — but nothing below it or
  // outside the group.
  EXPECT_TRUE(
      BdProtocol::validate_and_decode(bigint_body(BdProtocol::kX, BigInt(1)), P())
          .ok());
  EXPECT_EQ(BdProtocol::validate_and_decode(bigint_body(BdProtocol::kX, BigInt(0)),
                                            P())
                .reason,
            RejectReason::kBignumRange);
  EXPECT_EQ(BdProtocol::validate_and_decode(
                bigint_body(BdProtocol::kX, P() - BigInt(1)), P())
                .reason,
            RejectReason::kBignumRange);
  EXPECT_EQ(BdProtocol::validate_and_decode(
                truncate(bigint_body(BdProtocol::kZ, G())), P())
                .reason,
            RejectReason::kTruncated);
}

// ---------------------------------------------------------------------------
// Wire bignums: put_bigint / get_bigint and the group-range check every
// validated decoder applies.

TEST(WireBignum, RoundTripsEveryByteLength) {
  Drbg rng(130, "wire-bignum");
  for (std::size_t len = 0; len <= 130; ++len) {
    for (std::size_t zeros : {0u, 1u, 7u, 8u, 9u}) {
      if (zeros > len) continue;
      // `zeros` leading zero bytes, then a non-zero byte and random ones.
      Bytes be(len, 0);
      for (std::size_t i = zeros; i < len; ++i)
        be[i] = static_cast<std::uint8_t>(rng.next_u64(256));
      if (zeros < len) be[zeros] |= 0x01;
      const Bytes stripped(be.begin() + static_cast<std::ptrdiff_t>(zeros), be.end());
      const BigInt want = BigInt::from_hex(to_hex(be));
      const BigInt v = BigInt::from_bytes(be);
      ASSERT_EQ(v, want) << "len " << len << " zeros " << zeros;
      EXPECT_EQ(v.byte_length(), stripped.size());
      EXPECT_EQ(v.to_bytes(), stripped);
      EXPECT_EQ(v.to_bytes_padded(len), be);

      // put_bigint writes the minimal encoding; get_bigint also takes a
      // field with leading zeros.
      Writer w;
      put_bigint(w, v);
      Writer minimal;
      minimal.bytes(stripped);
      EXPECT_EQ(w.data(), minimal.data());
      Reader r(w.data());
      EXPECT_EQ(get_bigint(r), v);
      EXPECT_TRUE(r.done());
      Writer padded;
      padded.bytes(be);
      padded.u8(0x5a);
      Reader rp(padded.data());
      EXPECT_EQ(get_bigint(rp), v);
      EXPECT_EQ(rp.u8(), 0x5a);

      // A field cut short, or whose length prefix overruns the payload,
      // throws.
      if (!be.empty()) {
        const Bytes cut = truncate(padded.data(), 2);
        Reader rc(cut);
        EXPECT_THROW(get_bigint(rc), DecodeError) << "len " << len;
      }
      Writer lie;
      lie.u32(static_cast<std::uint32_t>(len + 1));
      lie.raw(be);
      Reader rl(lie.data());
      EXPECT_THROW(get_bigint(rl), DecodeError) << "len " << len;
    }
  }
}

TEST(WireBignum, InGroupRangeEdges) {
  for (DhBits bits : {DhBits::k512, DhBits::k1024}) {
    const BigInt& p = dh_group(bits).p();
    const BigInt one(1);
    const BigInt two(2);
    EXPECT_FALSE(in_group_range(BigInt(), p));
    EXPECT_FALSE(in_group_range(one, p));
    EXPECT_TRUE(in_group_range(two, p));
    EXPECT_TRUE(in_group_range(BigInt(3), p));
    EXPECT_TRUE(in_group_range(BigInt(1) << 64, p));
    EXPECT_TRUE(in_group_range(p - BigInt(3), p));
    EXPECT_TRUE(in_group_range(p - two, p));
    EXPECT_FALSE(in_group_range(p - one, p));
    EXPECT_FALSE(in_group_range(p, p));
    EXPECT_FALSE(in_group_range(p + one, p));
    EXPECT_FALSE(in_group_range(p << 64, p));
    // Against the definition on random values around p's width.
    Drbg rng(bits == DhBits::k512 ? 512 : 1024, "wire-range");
    for (int i = 0; i < 64; ++i) {
      const BigInt v = BigInt::random_bits(p.bit_length() - 1 + rng.next_u64(3), rng);
      EXPECT_EQ(in_group_range(v, p), v >= two && v <= p - two) << v.to_hex();
    }
  }
}

// ---------------------------------------------------------------------------
// Secure group layer: injected hostile frames die as counted typed
// rejections and the group still converges.

class AdversarialGroup : public ::testing::TestWithParam<ProtocolKind> {};

std::uint64_t total_rejected(const ProtocolFixture& f) {
  std::uint64_t n = 0;
  for (SecureGroupMember* m : f.alive()) n += m->frames_rejected();
  return n;
}

TEST_P(AdversarialGroup, SpoofedSenderIsTypedRejectAndGroupConverges) {
  ProtocolFixture f(GetParam());
  f.grow_to(3);
  const ProcessId victim = f.members[0]->id();

  // The attacker holds a GCS membership (transport-level insider) and sends
  // a protocol frame claiming a *different* honest member as its sender.
  const ProcessId evil = f.net.create_process(3);
  f.net.join_group("secure-group", evil);
  f.sim.run();

  const std::uint64_t before = total_rejected(f);
  Writer w;
  w.u8(1);  // protocol frame
  w.u64(f.members[0]->view()->view_id);
  w.u32(victim);  // claimed sender != transport sender
  w.bytes(str_bytes("spoof"));
  w.bytes(Bytes(128, 0x41));
  f.net.multicast("secure-group", evil, w.take());
  f.sim.run();
  EXPECT_GT(total_rejected(f), before);

  f.net.leave_group("secure-group", evil);
  f.sim.run();
  f.add_member();
  f.expect_agreement();
}

TEST_P(AdversarialGroup, GarbageFramesAreCountedPerReason) {
  obs::MetricsRegistry registry;
  obs::set_metrics(&registry);
  ProtocolFixture f(GetParam());
  f.grow_to(3);

  const ProcessId evil = f.net.create_process(3);
  f.net.join_group("secure-group", evil);
  f.sim.run();
  // 0xde is not a valid outer frame kind: every honest member must classify
  // the frame as kBadTag and count it.
  f.net.multicast("secure-group", evil, Bytes{0xde, 0xad, 0xbe, 0xef});
  f.sim.run();
  obs::set_metrics(nullptr);

  const std::string name =
      std::string("frames_rejected/") + to_string(GetParam()) + "/bad_tag";
  EXPECT_GE(registry.counter(name).value(), 3u);
  EXPECT_GT(total_rejected(f), 0u);

  f.net.leave_group("secure-group", evil);
  f.sim.run();
  f.add_member();
  f.expect_agreement();
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AdversarialGroup,
    ::testing::ValuesIn(sgk::testing::all_protocols()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace sgk
