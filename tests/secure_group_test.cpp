// SecureGroupMember data-plane and framing tests.
#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "tests/protocol_harness.h"
#include "util/serde.h"

namespace sgk {
namespace {

using testing::ProtocolFixture;

// The key block deliver_key installs is HKDF-SHA256 of the group secret
// under the salt "sgk-group-key", with the group name and the epoch as
// info, however the call site keys that salt. The null protocol's group
// secret at epoch E is E + 1. Keys are compared in constant time and never
// printed.
TEST(SecureGroup, InstalledKeyIsHkdfOfTheGroupSecret) {
  ProtocolFixture f(ProtocolKind::kNone);
  f.grow_to(3);
  for (SecureGroupMember* m : f.alive()) {
    ASSERT_TRUE(m->has_key());
    const std::uint64_t epoch = m->key_epoch();
    Writer info;
    info.str("secure-group");
    info.u64(epoch);
    const SecureBytes expect(hkdf_sha256(BigInt(epoch + 1).to_bytes(),
                                         str_bytes("sgk-group-key"), info.take(), 64));
    EXPECT_TRUE(ct_equal(m->key(), expect)) << "member " << m->id() << ", epoch " << epoch;
  }
}

TEST(SecureGroup, DataBeforeKeyIsRejected) {
  ProtocolFixture f(ProtocolKind::kTgdh);
  f.grow_to(2);
  // A data frame claiming a future key epoch is ignored.
  Writer w;
  w.u8(2);  // kData
  w.u64(999999);
  w.u32(f.members[0]->id());
  w.bytes(str_bytes("junk"));
  bool delivered = false;
  f.members[1]->set_data_listener([&](ProcessId, const Bytes&) { delivered = true; });
  f.net.multicast("secure-group", f.members[0]->id(), w.take());
  f.sim.run();
  EXPECT_FALSE(delivered);
}

TEST(SecureGroup, DataAcrossEpochBoundaryIsDropped) {
  // Data sealed under the old key must not decrypt after a re-key.
  ProtocolFixture f(ProtocolKind::kBd);
  f.grow_to(3);
  Bytes old_frame;
  {
    // Capture a data frame wire format by sealing under the current key.
    Writer w;
    w.u8(2);
    w.u64(f.members[0]->key_epoch());
    w.u32(f.members[0]->id());
    w.bytes(f.members[0]->seal(str_bytes("old epoch payload")));
    old_frame = w.take();
  }
  f.add_member();  // re-key
  bool delivered = false;
  f.members[1]->set_data_listener([&](ProcessId, const Bytes&) { delivered = true; });
  f.net.multicast("secure-group", f.members[0]->id(), old_frame);
  f.sim.run();
  EXPECT_FALSE(delivered);  // stale epoch
}

TEST(SecureGroup, SenderDoesNotReceiveOwnData) {
  ProtocolFixture f(ProtocolKind::kStr);
  f.grow_to(2);
  int self_deliveries = 0;
  f.members[0]->set_data_listener([&](ProcessId, const Bytes&) { ++self_deliveries; });
  f.members[0]->send_data(str_bytes("to others"));
  f.sim.run();
  EXPECT_EQ(self_deliveries, 0);
}

TEST(SecureGroup, LargePayloadRoundTrip) {
  ProtocolFixture f(ProtocolKind::kCkd);
  f.grow_to(2);
  Bytes big(100000);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 7);
  Bytes received;
  f.members[1]->set_data_listener([&](ProcessId, const Bytes& pt) { received = pt; });
  f.members[0]->send_data(big);
  f.sim.run();
  EXPECT_EQ(received, big);
}

TEST(SecureGroup, SealProducesDistinctCiphertexts) {
  ProtocolFixture f(ProtocolKind::kGdh);
  f.grow_to(2);
  Bytes a = f.members[0]->seal(str_bytes("same message"));
  Bytes b = f.members[0]->seal(str_bytes("same message"));
  EXPECT_NE(to_hex(a), to_hex(b));  // fresh IV per message
}

TEST(SecureGroup, OpenRejectsGarbage) {
  ProtocolFixture f(ProtocolKind::kGdh);
  f.grow_to(2);
  EXPECT_FALSE(f.members[0]->open(Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(f.members[0]->open(Bytes(200, 0xaa)).has_value());
}

TEST(SecureGroup, KeyListenerFiresPerEpoch) {
  ProtocolFixture f(ProtocolKind::kTgdh);
  std::vector<std::uint64_t> epochs;
  f.grow_to(1);
  f.members[0]->set_key_listener(
      [&](SimTime, std::uint64_t epoch) { epochs.push_back(epoch); });
  f.add_member();
  f.add_member();
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_LT(epochs[0], epochs[1]);
}

TEST(SecureGroup, ReplayedDataFrameDeliveredOnlyOnce) {
  // A passive attacker re-injecting a captured data frame must not cause a
  // duplicate delivery (per-sender sequence filter).
  ProtocolFixture f(ProtocolKind::kTgdh);
  f.grow_to(3);
  Bytes captured;
  f.net.set_wire_tap([&](const std::string&, ProcessId sender, const Bytes& payload) {
    if (sender == f.members[0]->id() && !payload.empty() && payload[0] == 2)
      captured = payload;
  });
  int deliveries = 0;
  f.members[1]->set_data_listener([&](ProcessId, const Bytes&) { ++deliveries; });
  f.members[0]->send_data(str_bytes("once only"));
  f.sim.run();
  ASSERT_EQ(deliveries, 1);
  ASSERT_FALSE(captured.empty());
  // Replay the exact frame.
  f.net.multicast("secure-group", f.members[0]->id(), captured);
  f.sim.run();
  EXPECT_EQ(deliveries, 1);
}

TEST(SecureGroup, OutOfOrderSequenceRejectedButLaterFramesFlow) {
  ProtocolFixture f(ProtocolKind::kBd);
  f.grow_to(2);
  std::vector<Bytes> frames;
  f.net.set_wire_tap([&](const std::string&, ProcessId, const Bytes& payload) {
    if (!payload.empty() && payload[0] == 2) frames.push_back(payload);
  });
  std::vector<Bytes> received;
  f.members[1]->set_data_listener(
      [&](ProcessId, const Bytes& pt) { received.push_back(pt); });
  f.members[0]->send_data(str_bytes("one"));
  f.members[0]->send_data(str_bytes("two"));
  f.sim.run();
  ASSERT_EQ(received.size(), 2u);
  // Re-inject frame #1 (stale sequence): dropped.
  ASSERT_EQ(frames.size(), 2u);
  f.net.multicast("secure-group", f.members[0]->id(), frames[0]);
  f.sim.run();
  EXPECT_EQ(received.size(), 2u);
  // New frames still flow.
  f.members[0]->send_data(str_bytes("three"));
  f.sim.run();
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received.back(), str_bytes("three"));
}

TEST(SecureGroup, CountersTrackBytes) {
  ProtocolFixture f(ProtocolKind::kBd);
  f.grow_to(3);
  for (SecureGroupMember* m : f.alive()) {
    EXPECT_GT(m->counters().bytes_sent, 0u);
    EXPECT_GT(m->counters().multicasts, 0u);
  }
}

TEST(SecureGroup, ViewAccessorsReflectMembership) {
  ProtocolFixture f(ProtocolKind::kStr);
  f.grow_to(3);
  const View* v = f.members[0]->view();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->members.size(), 3u);
  EXPECT_EQ(f.members[0]->group_name(), "secure-group");
}

TEST(SecureGroup, MembersOnSameMachineShareCpuButAgree) {
  // All members on ONE machine: maximal CPU contention, still correct.
  ProtocolFixture f(ProtocolKind::kBd, lan_testbed(1));
  f.grow_to(6);
  f.expect_agreement();
  f.remove_member(2);
  f.expect_agreement();
}

TEST(SecureGroup, SoloMachinePerMemberAgreesToo) {
  ProtocolFixture f(ProtocolKind::kGdh, lan_testbed(8));
  f.grow_to(8);
  f.expect_agreement();
}

}  // namespace
}  // namespace sgk
