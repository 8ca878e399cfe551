// Adversarial-wire tests: run_group with a frame mutator is bit-for-bit
// deterministic in its spec, survives the mutation menus in both
// verification regimes, and a mutation-free run stays an honest chaos run.
#include <gtest/gtest.h>

#include "server/group_host.h"

namespace sgk {
namespace {

using server::GroupReport;
using server::run_group;
using server::GroupSpec;

GroupSpec small_spec(ProtocolKind protocol, std::uint64_t seed, double rate,
                     bool verify_signatures, std::size_t group_size = 5,
                     int events = 3) {
  GroupSpec spec;
  spec.protocol = protocol;
  spec.seed = seed;
  spec.initial_size = group_size;
  spec.churn_events = events;
  spec.rates = fault::FaultRates::uniform(0.1);
  spec.mutation_rate = rate;
  spec.verify_signatures = verify_signatures;
  spec.recovery_watchdog_ms = 400.0;
  return spec;
}

TEST(FuzzHarness, DeterministicAcrossRuns) {
  const GroupSpec spec = small_spec(ProtocolKind::kGdh, 7, 0.05, true);
  const GroupReport a = run_group(spec);
  const GroupReport b = run_group(spec);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.wire.frames_mutated, b.wire.frames_mutated);
  EXPECT_EQ(a.frames_rejected, b.frames_rejected);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_DOUBLE_EQ(a.convergence_ms, b.convergence_ms);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(FuzzHarness, SurvivesSignedFullMenu) {
  const GroupReport r =
      run_group(small_spec(ProtocolKind::kBd, 6, 0.1, true, 8, 6));
  EXPECT_FALSE(r.crashed);
  EXPECT_TRUE(r.converged) << (r.violations.empty() ? "not converged"
                                                    : r.violations.front());
  EXPECT_GT(r.wire.frames_mutated, 0u);
  EXPECT_GT(r.frames_rejected, 0u);
}

TEST(FuzzHarness, SurvivesUnsignedDetectableMenu) {
  const GroupReport r =
      run_group(small_spec(ProtocolKind::kStr, 7, 0.1, false, 8, 6));
  EXPECT_FALSE(r.crashed);
  EXPECT_TRUE(r.converged) << (r.violations.empty() ? "not converged"
                                                    : r.violations.front());
  EXPECT_GT(r.wire.frames_mutated, 0u);
}

TEST(FuzzHarness, ZeroRateIsAnHonestChaosRun) {
  const GroupReport r =
      run_group(small_spec(ProtocolKind::kTgdh, 11, 0.0, true));
  EXPECT_FALSE(r.crashed);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.wire.frames_mutated, 0u);
}

}  // namespace
}  // namespace sgk
