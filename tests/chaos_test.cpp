// End-to-end chaos tests: scripted cascaded-membership scenarios per
// protocol through server::run_group, plus the determinism guarantee that
// makes a failing seed reproducible. These are the scripted counterparts of
// the randomized sweeps bench/chaos_soak runs; each script is timed so the
// later op lands inside the agreement started by the earlier one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "protocol_harness.h"
#include "server/group_host.h"

namespace sgk {
namespace {

using fault::ChurnKind;
using fault::ChurnOp;
using server::GroupReport;
using server::run_group;
using server::GroupSpec;

class Chaos : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  GroupSpec base_config() const {
    GroupSpec cfg;
    cfg.protocol = GetParam();
    cfg.initial_size = 6;
    cfg.seed = 17;
    cfg.rates = fault::FaultRates::uniform(0.1);
    cfg.recovery_watchdog_ms = 0.0;
    return cfg;
  }

  void expect_converged(const GroupReport& r, const GroupSpec& cfg) {
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.violations.empty())
        << "first violation: " << r.violations.front();
    EXPECT_EQ(r.wire.churn_applied, cfg.script.size());
    EXPECT_GT(r.final_epoch, 0u);
    EXPECT_FALSE(r.fingerprint.empty());
    // Wire faults actually fired (rates are non-zero).
    EXPECT_GT(r.wire.daemon_copies, 0u);
  }
};

TEST_P(Chaos, JoinDuringJoinConverges) {
  GroupSpec cfg = base_config();
  cfg.script = {ChurnOp{60.0, ChurnKind::kJoin, 0},
                ChurnOp{62.0, ChurnKind::kJoin, 0}};
  expect_converged(run_group(cfg), cfg);
}

TEST_P(Chaos, LeaveDuringMergeConverges) {
  GroupSpec cfg = base_config();
  // Partition, heal (starting a merge agreement), then a leave landing
  // inside that merge.
  cfg.script = {ChurnOp{60.0, ChurnKind::kPartition, 2},
                ChurnOp{120.0, ChurnKind::kHeal, 0},
                ChurnOp{122.0, ChurnKind::kLeave, 1}};
  expect_converged(run_group(cfg), cfg);
}

TEST_P(Chaos, PartitionDuringAgreementConverges) {
  GroupSpec cfg = base_config();
  // The partition interrupts the join's in-flight agreement; after the heal
  // every member must reconverge on one key.
  cfg.script = {ChurnOp{60.0, ChurnKind::kJoin, 0},
                ChurnOp{62.0, ChurnKind::kPartition, 3},
                ChurnOp{110.0, ChurnKind::kHeal, 0}};
  expect_converged(run_group(cfg), cfg);
}

TEST_P(Chaos, CrashDuringAgreementConverges) {
  GroupSpec cfg = base_config();
  // Abrupt daemon-crash model: no leave message; the membership protocol
  // discovers the absence mid-agreement.
  cfg.script = {ChurnOp{60.0, ChurnKind::kJoin, 0},
                ChurnOp{62.0, ChurnKind::kCrash, 2}};
  expect_converged(run_group(cfg), cfg);
}

TEST_P(Chaos, RekeyDuringOnboardingThenLeaveConverges) {
  // Regression (found by the multi-group server's seed sweep): a rekey
  // lands inside the still-running initial agreement, and a leave lands
  // inside the restarted one. The first restart used to strand a GDH
  // member whose partial-key broadcast died with the interrupted instance
  // but whose local cache survived looking established; it then keyed
  // from stale peer exponents and the group silently forked onto two
  // divergent keys. The clean wire keeps the timing deterministic so the
  // ops hit exactly those windows.
  GroupSpec cfg = base_config();
  cfg.initial_size = 3;
  cfg.rates = fault::FaultRates{};
  cfg.script = {ChurnOp{50.0, ChurnKind::kRekey, 1},
                ChurnOp{78.0, ChurnKind::kLeave, 1}};
  const GroupReport r = run_group(cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.violations.empty())
      << "first violation: " << r.violations.front();
  EXPECT_EQ(r.wire.churn_applied, cfg.script.size());
  EXPECT_EQ(r.final_size, 2u);
}

TEST_P(Chaos, RandomizedRunIsDeterministic) {
  GroupSpec cfg = base_config();
  cfg.churn_events = 4;
  const GroupReport a = run_group(cfg);
  const GroupReport b = run_group(cfg);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(a.violations.empty())
      << "first violation: " << a.violations.front();
  // Bit-for-bit replay: same config, same run.
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.settled_ms, b.settled_ms);
  EXPECT_EQ(a.convergence_ms, b.convergence_ms);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.final_size, b.final_size);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.stale_dropped, b.stale_dropped);
  EXPECT_EQ(a.wire.daemon_copies, b.wire.daemon_copies);
  EXPECT_EQ(a.wire.dropped, b.wire.dropped);
  EXPECT_EQ(a.wire.duplicated, b.wire.duplicated);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, Chaos, ::testing::ValuesIn(sgk::testing::all_protocols()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace sgk
