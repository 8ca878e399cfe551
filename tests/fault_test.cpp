// Unit tests for the fault subsystem (src/fault): deterministic plans,
// stateless per-copy wire verdicts, injector scheduling/bookkeeping, and the
// chaos invariants. Everything here must be a pure function of the seed —
// that is the property that makes a chaos failure reproducible from its
// report line alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "fault/invariants.h"
#include "fault/plan.h"
#include "sim/fault_adapter.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/secure_bytes.h"

namespace sgk::fault {
namespace {

bool same_op(const ChurnOp& a, const ChurnOp& b) {
  return a.at_ms == b.at_ms && a.kind == b.kind && a.arg == b.arg;
}

TEST(FaultPlan, ScriptKeepsOrderAndRejectsTimeRegression) {
  FaultPlan plan(7, FaultRates{});
  plan.script(10.0, ChurnKind::kJoin, 1);
  plan.script(10.0, ChurnKind::kLeave, 2);  // equal times are legal
  plan.script(25.0, ChurnKind::kHeal);
  ASSERT_EQ(plan.ops().size(), 3u);
  EXPECT_EQ(plan.ops()[1].kind, ChurnKind::kLeave);
  EXPECT_EQ(plan.ops()[1].arg, 2u);
  EXPECT_THROW(plan.script(24.0, ChurnKind::kJoin), CheckFailure);
  EXPECT_THROW(plan.script(-1.0, ChurnKind::kJoin), CheckFailure);
}

TEST(FaultPlan, RandomizeIsDeterministicInSeed) {
  FaultPlan a(42, FaultRates::uniform(0.1));
  FaultPlan b(42, FaultRates::uniform(0.1));
  a.randomize(12, 50.0, 5.0, 40.0);
  b.randomize(12, 50.0, 5.0, 40.0);
  ASSERT_EQ(a.ops().size(), b.ops().size());
  for (std::size_t i = 0; i < a.ops().size(); ++i)
    EXPECT_TRUE(same_op(a.ops()[i], b.ops()[i])) << "op " << i;
}

TEST(FaultPlan, RandomizeDiffersAcrossSeeds) {
  FaultPlan a(1, FaultRates{});
  FaultPlan b(2, FaultRates{});
  a.randomize(12, 50.0, 5.0, 40.0);
  b.randomize(12, 50.0, 5.0, 40.0);
  bool differs = a.ops().size() != b.ops().size();
  for (std::size_t i = 0; !differs && i < a.ops().size(); ++i)
    differs = !same_op(a.ops()[i], b.ops()[i]);
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RandomizeRespectsGapsAndEndsHealed) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    FaultPlan plan(seed, FaultRates{});
    plan.randomize(10, 50.0, 5.0, 40.0);
    // Exactly the requested events, plus at most one trailing heal.
    ASSERT_GE(plan.ops().size(), 10u) << "seed " << seed;
    ASSERT_LE(plan.ops().size(), 11u) << "seed " << seed;
    EXPECT_EQ(plan.ops().front().at_ms, 50.0);
    bool partitioned = false;
    for (std::size_t i = 0; i < plan.ops().size(); ++i) {
      const ChurnOp& op = plan.ops()[i];
      if (i > 0) {
        const double gap = op.at_ms - plan.ops()[i - 1].at_ms;
        EXPECT_GE(gap, 5.0) << "seed " << seed << " op " << i;
        EXPECT_LE(gap, 40.0) << "seed " << seed << " op " << i;
      }
      if (op.kind == ChurnKind::kPartition) {
        // The generator never stacks partitions; it alternates with heals.
        EXPECT_FALSE(partitioned) << "seed " << seed << " op " << i;
        partitioned = true;
      }
      if (op.kind == ChurnKind::kHeal) partitioned = false;
    }
    // A schedule that leaves the network split could never converge on one
    // group key, so every plan must end healed.
    EXPECT_FALSE(partitioned) << "seed " << seed;
  }
}

TEST(FaultPlan, DaemonCopyVerdictIsStateless) {
  FaultPlan plan(99, FaultRates::uniform(0.5));
  const WireFault first = plan.daemon_copy_fault(1, 2, 77);
  // Interleave unrelated consultations; the (from, to, seq) verdict must not
  // move — hook call order differs between runs only in ways that may not
  // affect outcomes.
  for (int i = 0; i < 50; ++i) plan.daemon_copy_fault(i % 4, (i + 1) % 4, i);
  const WireFault again = plan.daemon_copy_fault(1, 2, 77);
  EXPECT_EQ(first.extra_delay_ms, again.extra_delay_ms);
  EXPECT_EQ(first.copies, again.copies);
}

TEST(FaultPlan, ZeroRatesAreClean) {
  FaultPlan plan(3, FaultRates{});
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const WireFault f = plan.daemon_copy_fault(0, 1, seq);
    EXPECT_EQ(f.extra_delay_ms, 0.0);
    EXPECT_EQ(f.copies, 1);
  }
}

TEST(FaultPlan, FullRatesDropDelayAndDuplicateEveryCopy) {
  FaultRates rates = FaultRates::uniform(1.0);
  FaultPlan plan(3, rates);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const WireFault f = plan.daemon_copy_fault(0, 1, seq);
    // A drop is charged as a retransmission timeout, never silent loss.
    EXPECT_GE(f.extra_delay_ms, kRetransMs);
    EXPECT_EQ(f.copies, 2);
  }
}

TEST(FaultPlan, CopiesNeverDropBelowOne) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    FaultPlan plan(seed, FaultRates::uniform(0.5));
    for (std::uint64_t seq = 0; seq < 64; ++seq)
      EXPECT_GE(plan.daemon_copy_fault(0, 1, seq).copies, 1);
  }
}

TEST(FaultPlan, RaisingDropRateDoesNotChangeDuplication) {
  // Each fault dimension consumes an independent slice of the decision hash,
  // so tuning one rate must not reshuffle the others' outcomes.
  FaultRates lo = FaultRates{};
  lo.duplicate = 0.5;
  FaultRates hi = lo;
  hi.drop = 1.0;
  FaultPlan a(11, lo), b(11, hi);
  for (std::uint64_t seq = 0; seq < 200; ++seq)
    EXPECT_EQ(a.daemon_copy_fault(2, 3, seq).copies,
              b.daemon_copy_fault(2, 3, seq).copies)
        << "seq " << seq;
}

TEST(FaultPlan, UnicastFaultIsDelayOnly) {
  FaultPlan plan(5, FaultRates::uniform(1.0));
  for (std::uint64_t nth = 0; nth < 100; ++nth) {
    const WireFault f = plan.unicast_fault(1, 2, nth);
    EXPECT_EQ(f.copies, 1);  // clients cannot dedupe; the plan never dups
    EXPECT_GT(f.extra_delay_ms, 0.0);
  }
}

/// Records every applied op with the virtual time it fired at.
class RecordingTarget final : public ChurnTarget {
 public:
  explicit RecordingTarget(const Simulator& sim) : sim_(sim) {}
  void apply(const ChurnOp& op) override {
    fired_.push_back({sim_.now(), op.kind, op.arg});
  }
  const std::vector<ChurnOp>& fired() const { return fired_; }

 private:
  const Simulator& sim_;
  std::vector<ChurnOp> fired_;
};

TEST(FaultInjector, ArmSchedulesEveryOpOnVirtualTime) {
  Simulator sim;
  SimFaultScheduler sched(sim);
  FaultPlan plan(1, FaultRates{});
  plan.script(5.0, ChurnKind::kJoin, 10);
  plan.script(12.0, ChurnKind::kLeave, 20);
  FaultInjector injector(std::move(plan));
  RecordingTarget target(sim);
  injector.arm(sched, target);
  sim.run();
  ASSERT_EQ(target.fired().size(), 2u);
  EXPECT_EQ(target.fired()[0].at_ms, 5.0);
  EXPECT_EQ(target.fired()[0].kind, ChurnKind::kJoin);
  EXPECT_EQ(target.fired()[0].arg, 10u);
  EXPECT_EQ(target.fired()[1].at_ms, 12.0);
  EXPECT_EQ(injector.stats().churn_applied, 2u);
}

TEST(FaultInjector, OpsAlreadyInThePastFireImmediately) {
  Simulator sim;
  SimFaultScheduler sched(sim);
  FaultPlan plan(1, FaultRates{});
  plan.script(5.0, ChurnKind::kRekey, 0);
  FaultInjector injector(std::move(plan));
  RecordingTarget target(sim);
  // Arm after the op's scheduled time has already passed.
  sim.after(20.0, [&] { injector.arm(sched, target); });
  sim.run();
  ASSERT_EQ(target.fired().size(), 1u);
  EXPECT_EQ(target.fired()[0].at_ms, 20.0);
}

TEST(FaultInjector, ArmingTwiceIsACheckFailure) {
  Simulator sim;
  SimFaultScheduler sched(sim);
  FaultInjector injector(FaultPlan(1, FaultRates{}));
  RecordingTarget target(sim);
  injector.arm(sched, target);
  EXPECT_THROW(injector.arm(sched, target), CheckFailure);
}

TEST(FaultInjector, StatsTallyWireVerdicts) {
  FaultInjector injector(FaultPlan(3, FaultRates::uniform(1.0)));
  for (std::uint64_t seq = 0; seq < 10; ++seq)
    injector.on_daemon_copy(0, 1, seq);
  injector.on_unicast(1, 2);
  injector.on_unicast(1, 2);
  const FaultInjector::Stats& s = injector.stats();
  EXPECT_EQ(s.daemon_copies, 10u);
  EXPECT_EQ(s.dropped, 10u);     // rate 1.0: every copy charged a retransmit
  EXPECT_EQ(s.duplicated, 10u);  // ... and duplicated
  EXPECT_EQ(s.unicasts, 2u);
  EXPECT_EQ(s.unicasts_delayed, 2u);
  EXPECT_EQ(s.churn_applied, 0u);
}

SecureBytes key_bytes(std::uint8_t fill) {
  Bytes b(16, fill);
  return SecureBytes(b);
}

KeyProbe probe(ProcessId member, int component, std::uint64_t epoch,
               const SecureBytes* kp) {
  KeyProbe p;
  p.member = member;
  p.component = component;
  p.has_key = kp != nullptr;
  p.epoch = epoch;
  p.key = kp;
  return p;
}

TEST(InvariantChecker, AcceptsMonotoneEpochs) {
  InvariantChecker c;
  c.observe_epoch(1, 1);
  c.observe_epoch(1, 1);  // re-install at the same epoch is legal
  c.observe_epoch(1, 2);
  c.observe_epoch(2, 7);
  EXPECT_TRUE(c.ok());
}

TEST(InvariantChecker, FlagsEpochRegression) {
  InvariantChecker c;
  c.observe_epoch(1, 3);
  c.observe_epoch(1, 2);
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].find("epoch regression"), std::string::npos);
}

TEST(InvariantChecker, ConvergedComponentPasses) {
  const SecureBytes k = key_bytes(0xAA);
  InvariantChecker c;
  c.check_convergence({probe(1, 0, 4, &k), probe(2, 0, 4, &k)});
  EXPECT_TRUE(c.ok());
}

TEST(InvariantChecker, FlagsMissingKey) {
  const SecureBytes k = key_bytes(0xAA);
  InvariantChecker c;
  c.check_convergence({probe(1, 0, 4, &k), probe(2, 0, 4, nullptr)});
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].find("has no key"), std::string::npos);
}

TEST(InvariantChecker, FlagsKeyDivergenceWithoutLeakingKeyMaterial) {
  const SecureBytes ka = key_bytes(0xAA);
  const SecureBytes kb = key_bytes(0xBB);
  InvariantChecker c;
  c.check_convergence({probe(1, 0, 4, &ka), probe(2, 0, 4, &kb)});
  ASSERT_FALSE(c.ok());
  const std::string& v = c.violations()[0];
  EXPECT_NE(v.find("key divergence"), std::string::npos);
  // Violation text carries ids and epochs only, never key bytes.
  EXPECT_EQ(v.find("aa"), std::string::npos);
  EXPECT_EQ(v.find("AA"), std::string::npos);
}

TEST(InvariantChecker, FlagsEpochDivergenceWithinComponent) {
  const SecureBytes k = key_bytes(0xAA);
  InvariantChecker c;
  c.check_convergence({probe(1, 0, 4, &k), probe(2, 0, 5, &k)});
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].find("epoch divergence"), std::string::npos);
}

TEST(InvariantChecker, SeparateComponentsMayHoldDifferentKeys) {
  const SecureBytes ka = key_bytes(0xAA);
  const SecureBytes kb = key_bytes(0xBB);
  InvariantChecker c;
  c.check_convergence({probe(1, 0, 4, &ka), probe(2, 1, 9, &kb)});
  EXPECT_TRUE(c.ok());
}

TEST(InvariantChecker, FlagTimeoutRecordsLivenessViolation) {
  InvariantChecker c;
  c.flag_timeout("still agreeing at deadline");
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.violations()[0].find("liveness"), std::string::npos);
}

}  // namespace
}  // namespace sgk::fault
