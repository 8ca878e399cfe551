// Coalescing rekey pipeline (gcs/rekey_batcher.h) and its robustness
// envelope: adaptive window growth/shrink under the latency-budget cap,
// bounded queues with shed-oldest overload verdicts, degraded-mode health
// transitions, exponential recovery backoff determinism, and the
// batched-vs-unbatched equivalence of multi-group storm runs (same
// membership outcome, fewer keys, byte-identical reports at any thread
// count).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gcs/rekey_batcher.h"
#include "gcs/secure_group.h"
#include "server/server.h"
#include "sim/simulator.h"

namespace sgk {
namespace {

struct FlushLog {
  std::vector<double> at_ms;
  std::vector<bool> forced;
};

BatchConfig small_config() {
  BatchConfig cfg;
  cfg.enabled = true;
  cfg.min_window_ms = 10.0;
  cfg.max_window_ms = 80.0;
  cfg.latency_budget_ms = 0.0;  // no budget: window capped by max only
  return cfg;
}

TEST(RekeyBatcher, CoalescesEventsWithinWindow) {
  Simulator sim;
  FlushLog log;
  RekeyBatcher batcher(sim, small_config(), [&](const std::string&, bool f) {
    log.at_ms.push_back(sim.now());
    log.forced.push_back(f);
  });

  std::vector<OverloadVerdict> verdicts;
  for (double t : {0.0, 3.0, 6.0})
    sim.at(t, [&] { verdicts.push_back(batcher.note_event("g", BatchEventKind::kJoin)); });
  sim.run_until(100.0);

  ASSERT_EQ(log.at_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(log.at_ms[0], 10.0);  // window opened by the first event
  EXPECT_FALSE(log.forced[0]);
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts[0], OverloadVerdict::kAdmitted);
  EXPECT_EQ(verdicts[1], OverloadVerdict::kCoalesced);
  EXPECT_EQ(verdicts[2], OverloadVerdict::kCoalesced);

  const BatchStats stats = batcher.stats("g");
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.coalesced, 2u);
  EXPECT_EQ(stats.max_batch, 3u);
  EXPECT_EQ(batcher.queue_depth("g"), 0u);
}

TEST(RekeyBatcher, RefreshEventForcesTheFlush) {
  Simulator sim;
  FlushLog log;
  RekeyBatcher batcher(sim, small_config(), [&](const std::string&, bool f) {
    log.at_ms.push_back(sim.now());
    log.forced.push_back(f);
  });
  sim.at(0.0, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  sim.at(2.0, [&] { batcher.note_event("g", BatchEventKind::kRefresh); });
  sim.run_until(50.0);
  ASSERT_EQ(log.forced.size(), 1u);
  EXPECT_TRUE(log.forced[0]);
}

TEST(RekeyBatcher, ZeroWindowFlushesEveryEvent) {
  Simulator sim;
  BatchConfig cfg = small_config();
  cfg.min_window_ms = 0.0;
  cfg.max_window_ms = 0.0;
  FlushLog log;
  RekeyBatcher batcher(sim, cfg, [&](const std::string&, bool) {
    log.at_ms.push_back(sim.now());
  });
  sim.at(1.0, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  sim.at(2.0, [&] { batcher.note_event("g", BatchEventKind::kLeave); });
  sim.run_until(10.0);
  ASSERT_EQ(log.at_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(log.at_ms[0], 1.0);
  EXPECT_DOUBLE_EQ(log.at_ms[1], 2.0);
  EXPECT_EQ(batcher.stats("g").flushes, 2u);
}

TEST(RekeyBatcher, WindowGrowsUnderSustainedArrivalAndShrinksWhenIdle) {
  Simulator sim;
  BatchConfig cfg;
  cfg.enabled = true;
  cfg.min_window_ms = 2.0;
  cfg.max_window_ms = 64.0;
  cfg.latency_budget_ms = 0.0;
  cfg.grow_threshold = 3;
  RekeyBatcher batcher(sim, cfg, [](const std::string&, bool) {});

  // Three bursts of 3 events each, far enough apart that every burst lands
  // in its own window: each flush meets grow_threshold, doubling the window
  // 2 -> 4 -> 8 -> 16.
  for (int burst = 0; burst < 3; ++burst) {
    const double base = burst * 200.0;
    for (double dt : {0.0, 0.5, 1.0})
      sim.at(base + dt, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  }
  sim.run_until(500.0);
  EXPECT_DOUBLE_EQ(batcher.window_ms("g"), 16.0);

  // Two lone events: each flush carries batch size 1, halving 16 -> 8 -> 4.
  sim.at(600.0, [&] { batcher.note_event("g", BatchEventKind::kLeave); });
  sim.at(800.0, [&] { batcher.note_event("g", BatchEventKind::kLeave); });
  sim.run_until(1000.0);
  EXPECT_DOUBLE_EQ(batcher.window_ms("g"), 4.0);
}

TEST(RekeyBatcher, LatencyBudgetCapsWindowGrowth) {
  Simulator sim;
  BatchConfig cfg;
  cfg.enabled = true;
  cfg.min_window_ms = 8.0;
  cfg.max_window_ms = 256.0;
  cfg.latency_budget_ms = 40.0;
  cfg.budget_window_fraction = 0.5;  // hard cap: 20ms, despite max_window
  cfg.grow_threshold = 2;
  RekeyBatcher batcher(sim, cfg, [](const std::string&, bool) {});
  for (int burst = 0; burst < 5; ++burst) {
    const double base = burst * 300.0;
    sim.at(base, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
    sim.at(base + 1.0, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  }
  sim.run_until(2000.0);
  EXPECT_DOUBLE_EQ(batcher.window_ms("g"), 20.0);
}

TEST(RekeyBatcher, ShedsOldestAtCapacityWithoutLosingTheFlush) {
  Simulator sim;
  BatchConfig cfg = small_config();
  cfg.queue_capacity = 2;
  FlushLog log;
  RekeyBatcher batcher(sim, cfg, [&](const std::string&, bool) {
    log.at_ms.push_back(sim.now());
  });
  std::vector<OverloadVerdict> verdicts;
  for (double t : {0.0, 1.0, 2.0, 3.0})
    sim.at(t, [&] { verdicts.push_back(batcher.note_event("g", BatchEventKind::kJoin)); });
  sim.run_until(50.0);

  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_EQ(verdicts[0], OverloadVerdict::kAdmitted);
  EXPECT_EQ(verdicts[1], OverloadVerdict::kCoalesced);
  EXPECT_EQ(verdicts[2], OverloadVerdict::kShedOldest);
  EXPECT_EQ(verdicts[3], OverloadVerdict::kShedOldest);
  const BatchStats stats = batcher.stats("g");
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.flushes, 1u);     // the window still flushed
  EXPECT_EQ(stats.max_batch, 2u);   // bounded by capacity
}

TEST(RekeyBatcher, KeyInstallCompletesEveryCoveredFlush) {
  Simulator sim;
  BatchConfig cfg = small_config();
  cfg.min_window_ms = 0.0;
  cfg.max_window_ms = 0.0;
  RekeyBatcher batcher(sim, cfg, [](const std::string&, bool) {});
  sim.at(1.0, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  sim.at(2.0, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  sim.run_until(5.0);

  // Two flushes are outstanding; the cascaded agreement keys once, covering
  // both — every event must receive a latency sample.
  batcher.note_key_installed("g", 10.0);
  const BatchStats stats = batcher.stats("g");
  ASSERT_EQ(stats.event_to_key_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.event_to_key_ms[0], 9.0);
  EXPECT_DOUBLE_EQ(stats.event_to_key_ms[1], 8.0);
}

TEST(RekeyBatcher, DegradedModePinsWidestWindowAndRecovers) {
  Simulator sim;
  BatchConfig cfg;
  cfg.enabled = true;
  cfg.min_window_ms = 1.0;
  cfg.max_window_ms = 32.0;
  cfg.latency_budget_ms = 40.0;
  cfg.budget_window_fraction = 1.0;
  cfg.degrade_after_misses = 2;
  cfg.recover_after_hits = 2;
  RekeyBatcher batcher(sim, cfg, [](const std::string&, bool) {});
  std::vector<GroupHealth> transitions;
  batcher.set_health_listener(
      [&](const std::string&, GroupHealth h, SimTime) { transitions.push_back(h); });

  // Two budget misses in a row: flush + install 50ms after arrival.
  sim.at(0.0, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  sim.run_until(5.0);
  batcher.note_key_installed("g", 50.0);
  sim.at(60.0, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  sim.run_until(65.0);
  batcher.note_key_installed("g", 105.0);

  EXPECT_EQ(batcher.health("g"), GroupHealth::kDegraded);
  EXPECT_DOUBLE_EQ(batcher.window_ms("g"), 32.0);  // pinned widest
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0], GroupHealth::kDegraded);

  // Degraded windows open at max_window; two fast installs recover.
  sim.at(110.0, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  sim.run_until(145.0);  // flush at 142 (110 + 32)
  batcher.note_key_installed("g", 143.0);
  sim.at(150.0, [&] { batcher.note_event("g", BatchEventKind::kJoin); });
  sim.run_until(185.0);
  batcher.note_key_installed("g", 183.0);

  EXPECT_EQ(batcher.health("g"), GroupHealth::kNormal);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1], GroupHealth::kNormal);
  const BatchStats stats = batcher.stats("g");
  EXPECT_EQ(stats.budget_misses, 2u);
  EXPECT_EQ(stats.degraded_entries, 1u);
  EXPECT_EQ(stats.degraded_exits, 1u);
  // Recovery re-enters adaptation from the top of the allowed range.
  EXPECT_DOUBLE_EQ(batcher.window_ms("g"), 32.0);
}

// ---- exponential recovery backoff (gcs/secure_group.h) --------------------

TEST(RecoveryBackoff, FirstAttemptKeepsTheLegacyDelayExactly) {
  // Attempt 0 must stay jitter-free and uncapped-from-below so healthy-path
  // timing (and every committed baseline) is unchanged by the backoff.
  EXPECT_DOUBLE_EQ(recovery_backoff_ms(120.0, 50.0, 0, 7, 3, 1), 120.0);
  EXPECT_DOUBLE_EQ(recovery_backoff_ms(5000.0, 2000.0, 0, 7, 3, 1), 5000.0);
}

TEST(RecoveryBackoff, DoublesDeterministicallyWithBoundedJitter) {
  const double a1 = recovery_backoff_ms(100.0, 2000.0, 1, 42, 5, 9);
  EXPECT_GE(a1, 200.0);
  EXPECT_LE(a1, 250.0);  // 25% jitter ceiling
  EXPECT_DOUBLE_EQ(a1, recovery_backoff_ms(100.0, 2000.0, 1, 42, 5, 9));

  const double a3 = recovery_backoff_ms(100.0, 2000.0, 3, 42, 5, 9);
  EXPECT_GE(a3, 800.0);
  EXPECT_LE(a3, 1000.0);

  const double a10 = recovery_backoff_ms(100.0, 2000.0, 10, 42, 5, 9);
  EXPECT_GE(a10, 2000.0);  // capped
  EXPECT_LE(a10, 2500.0);
}

TEST(RecoveryBackoff, JitterIsSeededPerMemberAndEpoch) {
  const double base = recovery_backoff_ms(100.0, 2000.0, 2, 42, 5, 9);
  EXPECT_NE(base, recovery_backoff_ms(100.0, 2000.0, 2, 43, 5, 9));
  EXPECT_NE(base, recovery_backoff_ms(100.0, 2000.0, 2, 42, 6, 9));
  EXPECT_NE(base, recovery_backoff_ms(100.0, 2000.0, 2, 42, 5, 10));
}

// ---- storm runs through the multi-group server ----------------------------

server::ServerConfig storm_config(bool batched) {
  server::ServerConfig cfg;
  cfg.groups = 5;  // one per protocol in the default round-robin mix
  cfg.members_per_group = 4;
  cfg.churn_events = 12;
  cfg.seed = 7;
  cfg.storm = server::StormKind::kBursty;
  cfg.burst_size = 4;
  cfg.batch.enabled = true;
  cfg.batch.min_window_ms = batched ? 4.0 : 0.0;
  cfg.batch.max_window_ms = batched ? 256.0 : 0.0;
  cfg.batch.latency_budget_ms = 3000.0;
  return cfg;
}

TEST(ChurnStorm, BatchedBurstyStormConvergesEveryProtocol) {
  server::GroupServer srv(storm_config(/*batched=*/true));
  const server::ServerResult r = srv.run();
  for (const auto& g : r.groups)
    EXPECT_TRUE(g.converged) << "group g" << g.id << " (" << to_string(g.protocol) << ")";
  EXPECT_EQ(r.groups_converged, r.groups_hosted);
  EXPECT_GT(r.batch_events, 0u);
  EXPECT_GT(r.batch_flushes, 0u);
  // Coalescing must actually happen under 1ms-apart bursts.
  EXPECT_LT(r.batch_flushes, r.batch_events);
  EXPECT_GT(r.batch_event_to_key_p99_ms, 0.0);
}

TEST(ChurnStorm, BatchedMatchesUnbatchedMembershipOutcome) {
  server::GroupServer unbatched(storm_config(/*batched=*/false));
  server::GroupServer batched(storm_config(/*batched=*/true));
  const server::ServerResult ru = unbatched.run();
  const server::ServerResult rb = batched.run();
  EXPECT_EQ(ru.groups_converged, ru.groups_hosted);
  EXPECT_EQ(rb.groups_converged, rb.groups_hosted);
  // Batching changes when rekeys happen, never which membership changes
  // take effect: both runs apply the identical churn plan and must end with
  // the same population per group, using no more keys batched than not.
  ASSERT_EQ(ru.groups.size(), rb.groups.size());
  for (std::size_t i = 0; i < ru.groups.size(); ++i) {
    EXPECT_EQ(ru.groups[i].final_size, rb.groups[i].final_size) << "g" << i;
    EXPECT_EQ(ru.groups[i].events_applied, rb.groups[i].events_applied) << "g" << i;
  }
  EXPECT_EQ(ru.events_applied, rb.events_applied);
  EXPECT_LE(rb.rekeys_per_event, ru.rekeys_per_event);
}

TEST(ChurnStorm, OverloadSheddingNeverWedgesAGroup) {
  server::ServerConfig cfg = storm_config(/*batched=*/true);
  cfg.batch.queue_capacity = 1;  // every coalesce-eligible event sheds
  server::GroupServer srv(cfg);
  const server::ServerResult r = srv.run();
  EXPECT_GT(r.batch_shed, 0u);
  EXPECT_EQ(r.groups_converged, r.groups_hosted);
}

TEST(ChurnStorm, ImpossibleBudgetEntersDegradedModeAndStillConverges) {
  server::ServerConfig cfg = storm_config(/*batched=*/true);
  cfg.batch.latency_budget_ms = 0.5;  // no agreement can meet this
  cfg.batch.degrade_after_misses = 2;
  server::GroupServer srv(cfg);
  const server::ServerResult r = srv.run();
  EXPECT_GT(r.batch_budget_misses, 0u);
  EXPECT_GT(r.degraded_entries, 0u);
  EXPECT_GT(r.groups_degraded, 0u);
  EXPECT_EQ(r.groups_converged, r.groups_hosted);
}

TEST(ChurnStorm, BatchedReportIsByteIdenticalAcrossThreadCounts) {
  server::ServerConfig cfg = storm_config(/*batched=*/true);
  cfg.threads = 1;
  server::GroupServer one(cfg);
  cfg.threads = 3;
  server::GroupServer three(cfg);
  const std::string a = one.run().to_json(true).dump(2);
  const std::string b = three.run().to_json(true).dump(2);
  EXPECT_EQ(a, b);
}

TEST(ChurnStorm, BatchSectionAppearsOnlyWhenThePipelineRan) {
  server::ServerConfig off = storm_config(/*batched=*/true);
  off.batch = BatchConfig{};  // disabled: legacy per-event rekey path
  server::GroupServer legacy(off);
  const obs::Json without = legacy.run().to_json(false);
  EXPECT_EQ(without.find("batch"), nullptr);

  server::GroupServer srv(storm_config(/*batched=*/true));
  const obs::Json with = srv.run().to_json(false);
  ASSERT_NE(with.find("batch"), nullptr);
  EXPECT_NE(with.find("batch")->find("rekeys_per_event"), nullptr);
}

TEST(ChurnStorm, ChaosHarnessRunsBatchedDeployments) {
  server::GroupSpec cfg;
  cfg.seed = 3;
  cfg.churn_events = 4;
  cfg.initial_size = 5;
  cfg.rates = fault::FaultRates::uniform(0.1);
  cfg.recovery_watchdog_ms = 0.0;
  cfg.batch.enabled = true;
  cfg.batch.min_window_ms = 4.0;
  const server::GroupReport r = server::run_group(cfg);
  EXPECT_TRUE(r.converged) << (r.violations.empty() ? "" : r.violations[0]);
}

}  // namespace
}  // namespace sgk
