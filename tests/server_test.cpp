// src/server: the multi-group daemon. The headline contract under test is
// determinism — a GroupServer run must produce byte-identical output for any
// worker-thread count — plus the pieces that contract is built from: the
// shard executor's epoch barrier and disjoint per-group process-id blocks.
#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/plan.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "server/shard_executor.h"
#include "sim/topology.h"

namespace {

using namespace sgk;
using namespace sgk::server;

ServerConfig small_config(int threads) {
  ServerConfig cfg;
  cfg.groups = 6;       // spans all five protocols plus one repeat
  cfg.members_per_group = 3;
  cfg.churn_events = 2;
  cfg.threads = threads;
  cfg.seed = 42;
  return cfg;
}

/// The perfbench storm_faulty shape at test size: bursty storms, batched
/// rekeying, 5% wire faults, and more groups than any thread count below,
/// onboarding 1 ms apart so every group is busy in the same epochs. Workers
/// claim groups as they free up, so groups move between workers from one
/// epoch to the next.
ServerConfig storm_faulty_config(int threads) {
  ServerConfig cfg;
  cfg.groups = 12;
  cfg.members_per_group = 4;
  cfg.churn_events = 12;
  cfg.threads = threads;
  cfg.seed = 11;
  cfg.storm = StormKind::kBursty;
  cfg.burst_size = 4;
  cfg.batch.enabled = true;
  cfg.batch.min_window_ms = 4.0;
  cfg.batch.max_window_ms = 256.0;
  cfg.batch.latency_budget_ms = 3000.0;
  cfg.rates = fault::FaultRates::uniform(0.05);
  return cfg;
}

/// Runs a server and assembles the same deterministic RunReport a bench
/// would write (payload section + merged metrics; no wall clock).
std::string report_bytes(const ServerConfig& cfg) {
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  GroupServer server(cfg);
  const ServerResult result = server.run();
  obs::RunReport report("server_test");
  report.add_section("multi_group", result.to_json(/*with_groups=*/true));
  report.add_metrics(registry);
  return report.json().dump(2);
}

// The determinism regression: byte-identical RunReport JSON (group rows,
// aggregate quantiles, every merged metric) at every thread count — more
// threads than groups on the small fleet, and groups changing workers
// between epochs on the storm-with-faults fleet.
TEST(GroupServerDeterminism, ThreadCountDoesNotChangeReportBytes) {
  const std::string one = report_bytes(small_config(1));
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, report_bytes(small_config(8)));

  const std::string storm = report_bytes(storm_faulty_config(1));
  ASSERT_NE(storm.find("\"batch\""), std::string::npos);
  for (int threads : {2, 3, 5}) {
    EXPECT_EQ(storm, report_bytes(storm_faulty_config(threads)))
        << threads << " threads";
  }
}

// Re-running the same config must also be bit-stable (seeded schedules,
// no ambient entropy).
TEST(GroupServerDeterminism, RerunIsByteIdentical) {
  EXPECT_EQ(report_bytes(small_config(2)), report_bytes(small_config(2)));
}

TEST(GroupServer, SmallFleetConvergesAndAggregates) {
  GroupServer server(small_config(4));
  const ServerResult result = server.run();
  EXPECT_EQ(result.groups_hosted, 6u);
  EXPECT_EQ(result.groups_converged, 6u);
  ASSERT_EQ(result.groups.size(), 6u);
  // The hosts are the server's only per-group state: every one settled,
  // converged and did not crash.
  for (const GroupReport& g : result.groups) {
    EXPECT_TRUE(g.converged) << "group " << g.id;
    EXPECT_FALSE(g.crashed) << "group " << g.id;
    EXPECT_GT(g.settled_ms, 0.0) << "group " << g.id;
    EXPECT_GE(g.final_size, 2u);
    EXPECT_TRUE(g.violations.empty());
  }
  // Group ids come back ascending (the aggregation order that makes the
  // report thread-count independent).
  for (std::size_t i = 1; i < result.groups.size(); ++i)
    EXPECT_LT(result.groups[i - 1].id, result.groups[i].id);
  EXPECT_GT(result.key_installs, 0u);
  EXPECT_GT(result.virtual_makespan_ms, 0.0);
  EXPECT_GT(result.event_to_key_p99_ms, 0.0);
  // Every group's network was absorbed into the shared stats.
  EXPECT_EQ(server.shared_stats().networks_absorbed, 6u);
  EXPECT_GT(server.shared_stats().stamped_total, 0u);
  EXPECT_GE(server.shared_stats().processes_total, 6u * 3u);
}

// Disjoint per-group process-id blocks: no pid appears in two groups, and
// every pid sits inside its group's [gid * stride, (gid+1) * stride) block.
TEST(GroupServer, ProcessIdBlocksAreDisjoint) {
  SpreadParams params;
  params.first_process_id = 3 * GroupServer::kPidStride;
  Simulator sim;
  const Topology topo = lan_testbed(2);
  SpreadNetwork net(sim, topo, params);
  EXPECT_EQ(net.create_process(0), 3 * GroupServer::kPidStride);
  EXPECT_EQ(net.create_process(1), 3 * GroupServer::kPidStride + 1);
  EXPECT_EQ(net.first_process_id(), 3 * GroupServer::kPidStride);
}

// One churn-replay engine: a host driven alone by run_group and the same
// spec's host advanced in 50 ms epochs, as GroupServer::run does, produce
// equal reports — with and without wire mutation, for every protocol.
TEST(GroupHost, EpochSlicingDoesNotChangeTheReport) {
  for (ProtocolKind protocol :
       {ProtocolKind::kGdh, ProtocolKind::kCkd, ProtocolKind::kTgdh,
        ProtocolKind::kStr, ProtocolKind::kBd}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      for (double mutation : {0.0, 0.05}) {
        GroupSpec spec;
        spec.protocol = protocol;
        spec.seed = seed;
        spec.rates = fault::FaultRates::uniform(0.1);
        spec.mutation_rate = mutation;
        spec.verify_signatures = seed % 2 == 0;
        SCOPED_TRACE(std::string(to_string(protocol)) + " seed " +
                     std::to_string(seed) + " mutation " +
                     std::to_string(mutation));

        const GroupReport whole = run_group(spec);
        GroupHost host(spec, std::make_shared<Pki>(), 0, lan_testbed());
        for (double t = 50.0; !host.done(); t += 50.0) {
          if (t >= host.deadline_ms()) {
            host.settle_at_deadline();
          } else if (host.next_event_time() <= t) {
            host.advance(t);
          }
        }
        GroupReport sliced = host.finalize(nullptr);
        EXPECT_TRUE(whole.converged);
        // settled_ms is the one field allowed to differ: run_until moves the
        // clock to its bound, so run_group's host ends at the deadline while
        // a sliced host ends at the epoch in which its queue drained.
        EXPECT_LE(sliced.settled_ms, whole.settled_ms);
        sliced.settled_ms = whole.settled_ms;
        EXPECT_TRUE(sliced == whole);
      }
    }
  }
}

// An exception escaping an event handler (here the SGK_CHECK that rejects an
// unknown protocol while the members onboard) is contained by the host: a
// crash violation in that group's report, while the worker and every other
// group carry on.
TEST(GroupHost, EscapedExceptionIsContainedAsACrash) {
  GroupSpec spec;
  spec.protocol = static_cast<ProtocolKind>(99);
  const GroupReport alone = run_group(spec);
  EXPECT_TRUE(alone.crashed);
  EXPECT_FALSE(alone.converged);
  // The crash alone: no wedge, convergence or size violations piled on it,
  // and nothing read from the half-built members.
  ASSERT_EQ(alone.violations.size(), 1u);
  EXPECT_EQ(alone.violations.front().rfind("crash: ", 0), 0u)
      << alone.violations.front();
  EXPECT_EQ(alone.final_size, 0u);
  EXPECT_TRUE(alone.fingerprint.empty());

  ServerConfig cfg = small_config(/*threads=*/2);
  cfg.protocols = {static_cast<ProtocolKind>(99), ProtocolKind::kTgdh};
  GroupServer server(cfg);
  const ServerResult r = server.run();
  ASSERT_EQ(r.groups.size(), cfg.groups);
  for (const GroupReport& g : r.groups) {
    EXPECT_EQ(g.crashed, g.id % 2 == 0) << "group " << g.id;
    EXPECT_EQ(g.converged, g.id % 2 == 1) << "group " << g.id;
  }
}

TEST(ShardExecutor, EpochBarrierRunsEveryShardToCompletion) {
  constexpr int kThreads = 4;
  ShardExecutor exec(kThreads);
  EXPECT_EQ(exec.threads(), kThreads);
  std::vector<int> per_shard(kThreads, 0);  // slot per shard: no sharing
  for (int epoch = 0; epoch < 50; ++epoch) {
    exec.run_epoch([&](int shard) { ++per_shard[shard]; });
    // The barrier has passed: every shard's work for this epoch is visible.
    for (int shard = 0; shard < kThreads; ++shard)
      ASSERT_EQ(per_shard[shard], epoch + 1) << "shard " << shard;
  }
}

// perfbench probes each worker's speed in one epoch and rescales that
// worker's slices by it in later epochs, so a worker index must keep its
// thread: each index runs on one OS thread, in every epoch, and no two
// indices (nor the caller) share one.
TEST(ShardExecutor, EachWorkerKeepsItsThreadAcrossEpochs) {
  constexpr int kThreads = 3;
  ShardExecutor exec(kThreads);
  std::vector<std::thread::id> first(kThreads), seen(kThreads);
  exec.run_epoch([&](int w) { first[w] = std::this_thread::get_id(); });
  const std::set<std::thread::id> distinct(first.begin(), first.end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(distinct.count(std::this_thread::get_id()), 0u);
  for (int epoch = 0; epoch < 20; ++epoch) {
    exec.run_epoch([&](int w) { seen[w] = std::this_thread::get_id(); });
    EXPECT_EQ(seen, first) << "epoch " << epoch;
  }
}

// The barrier orders one epoch's writes before the next epoch's reads on
// other workers: worker w writes its slot in epoch N, and worker
// (w + 1) % k reads it in epoch N + 1. The slots are plain ints, double
// buffered by epoch parity, so nothing but the barrier orders the hand-off
// (TSan checks that).
TEST(ShardExecutor, WritesOfOneEpochReachTheNextWorkerInTheNext) {
  constexpr int kThreads = 4;
  ShardExecutor exec(kThreads);
  std::vector<int> slots[2] = {std::vector<int>(kThreads, -1),
                               std::vector<int>(kThreads, -1)};
  std::vector<int> mismatches(kThreads, 0);
  auto value = [](int epoch, int w) { return epoch * 100 + w; };
  for (int epoch = 0; epoch < 40; ++epoch) {
    exec.run_epoch([&](int w) {
      const int from = (w + kThreads - 1) % kThreads;
      if (epoch > 0 && slots[(epoch + 1) % 2][from] != value(epoch - 1, from))
        ++mismatches[w];
      slots[epoch % 2][w] = value(epoch, w);
    });
  }
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

// Workers parked at the start barrier must leave when the executor goes
// away without having run an epoch.
TEST(ShardExecutor, DestroyedBeforeAnyEpochJoinsCleanly) {
  for (int threads : {1, 2, 4}) {
    ShardExecutor exec(threads);
    EXPECT_EQ(exec.threads(), threads);
  }
}

// A task's exception reaches run_epoch's caller instead of ending the
// process from a worker thread: worker 1 (worker 0 at one thread) throws
// std::bad_alloc, which GroupHost::advance rethrows; at three threads
// worker 2 throws too, and the lowest index wins. Every other worker still
// finishes its slice, the next epoch runs normally, and the executor joins
// its workers when it goes away.
TEST(ShardExecutor, TaskExceptionReachesTheCaller) {
  for (int threads : {1, 2, 3}) {
    ShardExecutor exec(threads);
    std::vector<int> ran(threads, 0);
    const int thrower = std::min(threads - 1, 1);
    EXPECT_THROW(exec.run_epoch([&](int w) {
      ++ran[w];
      if (w == thrower) throw std::bad_alloc();
      if (w > thrower) throw std::runtime_error("later worker");
    }),
                 std::bad_alloc)
        << threads << " threads";
    EXPECT_EQ(ran, std::vector<int>(threads, 1)) << threads << " threads";
    exec.run_epoch([&](int w) { ++ran[w]; });
    EXPECT_EQ(ran, std::vector<int>(threads, 2)) << threads << " threads";
  }
}

TEST(ShardExecutor, SingleThreadRunsInline) {
  ShardExecutor exec(1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  exec.run_epoch([&](int shard) {
    EXPECT_EQ(shard, 0);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

}  // namespace
