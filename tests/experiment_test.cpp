// Tests of the experiment harness and sweeps (the machinery behind the
// figure benches).
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bench_io.h"
#include "harness/report.h"
#include "harness/sweep.h"

namespace sgk {
namespace {

TEST(Experiment, GrowAndMeasureJoin) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kTgdh;
  Experiment exp(cfg);
  exp.grow_to(4);
  EXPECT_EQ(exp.group_size(), 4u);
  EventResult r = exp.measure_join();
  EXPECT_EQ(r.group_size, 5u);
  EXPECT_GT(r.elapsed_ms, 0.0);
  EXPECT_GT(r.membership_ms, 0.0);
  EXPECT_LT(r.membership_ms, r.elapsed_ms);
  EXPECT_GT(r.total.exp_total(), 0u);
  EXPECT_GT(r.total.multicasts, 0u);
}

TEST(Experiment, MeasureLeavePolicies) {
  for (LeavePolicy policy : {LeavePolicy::kRandom, LeavePolicy::kMiddle,
                             LeavePolicy::kOldest, LeavePolicy::kNewest}) {
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::kStr;
    Experiment exp(cfg);
    exp.grow_to(6);
    EventResult r = exp.measure_leave(policy);
    EXPECT_EQ(r.group_size, 5u);
    EXPECT_GT(r.elapsed_ms, 0.0);
  }
}

TEST(Experiment, MeasureMultiLeave) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kGdh;
  Experiment exp(cfg);
  exp.grow_to(10);
  EventResult r = exp.measure_multi_leave(4);
  EXPECT_EQ(r.group_size, 6u);
  EXPECT_GT(r.elapsed_ms, 0.0);
  // One controller broadcast handles the whole partition event.
  EXPECT_EQ(r.total.multicasts, 1u);
}

TEST(Experiment, MeasurePartitionAndMerge) {
  ExperimentConfig cfg;
  cfg.topology = lan_testbed(6);
  cfg.protocol = ProtocolKind::kTgdh;
  Experiment exp(cfg);
  exp.grow_to(6);
  std::vector<std::vector<MachineId>> parts = {{0, 1, 2}, {3, 4, 5}};
  EventResult split = exp.measure_partition(parts);
  EXPECT_GT(split.elapsed_ms, 0.0);
  EXPECT_EQ(split.group_size, 6u);  // all members alive, two views
  EventResult merge = exp.measure_merge();
  EXPECT_GT(merge.elapsed_ms, 0.0);
  EXPECT_EQ(merge.group_size, 6u);
}

TEST(Experiment, MembershipBaselineIsCheapest) {
  // The membership-only series must lower-bound every protocol.
  for (ProtocolKind kind : {ProtocolKind::kBd, ProtocolKind::kTgdh}) {
    ExperimentConfig base;
    base.protocol = ProtocolKind::kNone;
    Experiment baseline(base);
    baseline.grow_to(5);
    double base_ms = baseline.measure_join().elapsed_ms;

    ExperimentConfig cfg;
    cfg.protocol = kind;
    Experiment exp(cfg);
    exp.grow_to(5);
    EXPECT_GT(exp.measure_join().elapsed_ms, base_ms);
  }
}

TEST(Experiment, DeterministicAcrossRuns) {
  auto run = [] {
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::kGdh;
    cfg.seed = 5;
    Experiment exp(cfg);
    exp.grow_to(6);
    return exp.measure_join().elapsed_ms;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Experiment, SeedChangesLeaveChoice) {
  auto run = [](std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::kCkd;
    cfg.seed = seed;
    Experiment exp(cfg);
    exp.grow_to(8);
    double total = 0;
    for (int i = 0; i < 3; ++i) total += exp.measure_leave(LeavePolicy::kRandom).elapsed_ms;
    return total;
  };
  // Different seeds pick different leavers; with CKD the controller-leave
  // case is much more expensive, so totals differ across seeds somewhere.
  EXPECT_NE(run(1), run(3));
}

TEST(Sweep, JoinSweepShapes) {
  SweepConfig cfg;
  cfg.max_size = 6;
  cfg.protocols = {ProtocolKind::kGdh, ProtocolKind::kNone};
  SweepResult r = sweep_join(cfg);
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_EQ(r.series[0].label, "GDH");
  EXPECT_EQ(r.series[1].label, "Membership service");
  ASSERT_EQ(r.series[0].values.size(), 5u);  // sizes 2..6
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_GT(r.series[0].values[i], r.series[1].values[i]);
}

TEST(Sweep, LeaveSweepShapes) {
  SweepConfig cfg;
  cfg.max_size = 6;
  cfg.protocols = {ProtocolKind::kTgdh};
  SweepResult r = sweep_leave(cfg);
  ASSERT_EQ(r.series.size(), 1u);
  for (double v : r.series[0].values) EXPECT_GT(v, 0.0);
}

TEST(Report, TableAndCsvRender) {
  SweepResult r;
  r.min_size = 2;
  r.max_size = 4;
  r.series = {Series{"A", {1.0, 2.0, 3.0}, {}}, Series{"B", {4.0, 5.0, 6.0}, {}}};
  std::ostringstream table;
  print_sweep_table(table, "title", r);
  EXPECT_NE(table.str().find("title"), std::string::npos);
  EXPECT_NE(table.str().find("A"), std::string::npos);
  std::ostringstream csv;
  print_sweep_csv(csv, r);
  EXPECT_NE(csv.str().find("size,A,B"), std::string::npos);
  EXPECT_NE(csv.str().find("2,1.000,4.000"), std::string::npos);
  std::ostringstream summary;
  print_sweep_summary(summary, r);
  EXPECT_NE(summary.str().find("fastest at n=2: A"), std::string::npos);
}

TEST(Report, CsvFileWrite) {
  SweepResult r;
  r.min_size = 2;
  r.max_size = 3;
  r.series = {Series{"X", {1.5, 2.5}, {}}};
  const std::string path = ::testing::TempDir() + "/sweep_test.csv";
  ASSERT_TRUE(write_sweep_csv(path, r));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "size,X");
}

TEST(Report, CsvWriteErrorNamesPath) {
  SweepResult r;
  r.min_size = 2;
  r.max_size = 2;
  r.series = {Series{"X", {1.0}, {}}};
  const std::string path =
      ::testing::TempDir() + "/no-such-dir-xyz/sweep_test.csv";
  std::string error;
  EXPECT_FALSE(write_sweep_csv(path, r, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(BenchIo, ParsesObservabilityFlagsAndPassesRestThrough) {
  const char* argv[] = {"bench", "12", "--json", "out.json",
                        "--csv",  "p",  "--trace", "t.json"};
  BenchOptions opts;
  std::string error;
  ASSERT_TRUE(BenchOptions::parse(8, const_cast<char**>(argv), opts, error));
  EXPECT_EQ(opts.json_path, "out.json");
  EXPECT_EQ(opts.trace_path, "t.json");
  EXPECT_TRUE(opts.observing());
  ASSERT_EQ(opts.rest.size(), 3u);
  EXPECT_EQ(opts.rest[0], "12");
  EXPECT_EQ(opts.rest[1], "--csv");
  EXPECT_EQ(opts.rest[2], "p");

  const char* bad[] = {"bench", "--json"};
  BenchOptions opts2;
  EXPECT_FALSE(BenchOptions::parse(2, const_cast<char**>(bad), opts2, error));
  EXPECT_NE(error.find("--json"), std::string::npos);
}

TEST(BenchIo, ThreadsAndSeedTakeOnlyWholeNumbers) {
  const char* good[] = {"bench", "--threads", "4",
                        "--seed=18446744073709551615"};
  BenchOptions opts;
  std::string error;
  ASSERT_TRUE(BenchOptions::parse(4, const_cast<char**>(good), opts, error));
  EXPECT_EQ(opts.threads, 4);
  EXPECT_EQ(opts.seed, 18446744073709551615ull);
  for (const char* bad : {"--threads=4x", "--threads=0", "--seed=7x",
                          "--seed=-1", "--seed=18446744073709551616"}) {
    const char* argv[] = {"bench", bad};
    BenchOptions o;
    EXPECT_FALSE(BenchOptions::parse(2, const_cast<char**>(argv), o, error))
        << bad;
  }
}

TEST(BenchIo, SweepToJsonEmitsMedianAndP95) {
  SweepResult r;
  r.min_size = 2;
  r.max_size = 3;
  Series s;
  s.label = "GDH";
  s.values = {2.0, 5.0};  // means of the sample sets below
  s.samples = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  r.series = {s};
  const obs::Json doc = sweep_to_json(r);
  EXPECT_DOUBLE_EQ(doc.at("min_size").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("sizes").at(std::size_t{1}).as_number(), 3.0);
  const obs::Json& entry = doc.at("series").at(std::size_t{0});
  EXPECT_EQ(entry.at("label").as_string(), "GDH");
  EXPECT_DOUBLE_EQ(entry.at("mean_ms").at(std::size_t{0}).as_number(), 2.0);
  EXPECT_DOUBLE_EQ(entry.at("median_ms").at(std::size_t{0}).as_number(), 2.0);
  EXPECT_DOUBLE_EQ(entry.at("median_ms").at(std::size_t{1}).as_number(), 5.0);
  // p95 with 3 samples interpolates toward the max.
  EXPECT_NEAR(entry.at("p95_ms").at(std::size_t{1}).as_number(), 5.9, 1e-9);
}

TEST(BenchIo, ParseScaleRejectsZeroNegativeAndEmpty) {
  EXPECT_EQ(parse_scale("1,2,4"), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(parse_scale("3"), (std::vector<int>{3}));
  EXPECT_THROW(parse_scale("0"), std::runtime_error);
  EXPECT_THROW(parse_scale("1,0"), std::runtime_error);
  EXPECT_THROW(parse_scale("-2"), std::runtime_error);
  EXPECT_THROW(parse_scale(""), std::runtime_error);
  // Trailing characters are an error, not a count.
  EXPECT_THROW(parse_scale("1x"), std::runtime_error);
  EXPECT_THROW(parse_scale("2,4x"), std::runtime_error);
  EXPECT_THROW(parse_scale("1,,2"), std::runtime_error);
}

TEST(BenchIo, ParseRealTakesOnlyAFiniteNumber) {
  double v = -1.0;
  EXPECT_TRUE(parse_real("0.05", v));
  EXPECT_DOUBLE_EQ(v, 0.05);
  EXPECT_TRUE(parse_real("250", v));
  EXPECT_DOUBLE_EQ(v, 250.0);
  for (const char* bad : {"", "0.0x", "5ms", " 1", "1 ", "+1", "nan", "inf"}) {
    v = -1.0;
    EXPECT_FALSE(parse_real(bad, v)) << bad;
    EXPECT_DOUBLE_EQ(v, -1.0) << bad;
  }
}

// A run whose JSON differs at one thread count turns the verdict false and
// prints the violation with a repro naming the first and the bad count; the
// runs that match still print their "determinism ok" line.
TEST(BenchIo, ThreadSweepReportsTheDivergingThreadCount) {
  std::vector<int> firsts;
  std::ostringstream out;
  const ThreadSweep sweep = sweep_thread_scale(
      {2, 3, 5}, "batched", "bench --seed=7", /*wallclock=*/false,
      [&](int threads, bool first) {
        if (first) firsts.push_back(threads);
        return std::string(threads == 5 ? "{\"a\": 2}" : "{\"a\": 1}");
      },
      out);
  EXPECT_FALSE(sweep.determinism_ok);
  EXPECT_EQ(firsts, std::vector<int>{2});
  EXPECT_TRUE(sweep.wall_ms.empty());
  const std::string text = out.str();
  EXPECT_NE(text.find("determinism ok (batched): --threads 3 == --threads 2 "
                      "(8 bytes)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("DETERMINISM VIOLATION (batched): --threads 5 diverges "
                      "from --threads 2 at byte 6"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("repro: bench --seed=7 --scale=2,5\n"),
            std::string::npos)
      << text;

  std::ostringstream quiet;
  const ThreadSweep same = sweep_thread_scale(
      {1, 4}, "", "bench", /*wallclock=*/true,
      [](int, bool) { return std::string("{}"); }, quiet);
  EXPECT_TRUE(same.determinism_ok);
  EXPECT_EQ(quiet.str(),
            "determinism ok: --threads 4 == --threads 1 (2 bytes)\n");
  ASSERT_EQ(same.wall_ms.size(), 2u);
  EXPECT_EQ(same.wall_ms[1].first, 4);
}

// Rows with more threads than host cpus are marked, not read as scaling.
TEST(BenchIo, WallTableMarksOversubscribedRows) {
  const auto cpus = static_cast<int>(std::thread::hardware_concurrency());
  ThreadSweep sweep;
  sweep.mode = "batched";
  std::ostringstream none;
  sweep.print_wall_table(none);
  EXPECT_EQ(none.str(), "");

  sweep.wall_ms = {{1, 100.0}, {cpus + 1, 50.0}};
  std::ostringstream out;
  sweep.print_wall_table(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("wall-clock scaling, batched mode (host ms; baseline 1 "
                      "thread; host cpus " + std::to_string(cpus) + ")"),
            std::string::npos)
      << text;
  if (cpus > 0) {
    EXPECT_NE(text.find("oversubscribed (" + std::to_string(cpus + 1) +
                        " threads > " + std::to_string(cpus) + " cpus)"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("oversubscribed"), text.rfind("oversubscribed"));
  }
}

TEST(Sweep, SamplesBackTheAverages) {
  SweepConfig cfg;
  cfg.max_size = 4;
  cfg.seeds = 2;
  cfg.protocols = {ProtocolKind::kTgdh};
  SweepResult r = sweep_leave(cfg);
  ASSERT_EQ(r.series.size(), 1u);
  const Series& s = r.series[0];
  ASSERT_EQ(s.samples.size(), s.values.size());
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    ASSERT_EQ(s.samples[i].size(), 2u);
    const double mean = (s.samples[i][0] + s.samples[i][1]) / 2.0;
    EXPECT_NEAR(mean, s.values[i], 1e-9);
  }
}

TEST(Experiment, WanJoinSlowerThanLan) {
  auto measure = [](Topology topo) {
    ExperimentConfig cfg;
    cfg.topology = std::move(topo);
    cfg.protocol = ProtocolKind::kTgdh;
    Experiment exp(cfg);
    exp.grow_to(4);
    return exp.measure_join().elapsed_ms;
  };
  EXPECT_GT(measure(wan_testbed()), 10 * measure(lan_testbed()));
}

TEST(Experiment, DhBitsAffectCost) {
  auto measure = [](DhBits bits) {
    ExperimentConfig cfg;
    cfg.dh_bits = bits;
    cfg.protocol = ProtocolKind::kGdh;
    Experiment exp(cfg);
    exp.grow_to(8);
    return exp.measure_join().elapsed_ms;
  };
  EXPECT_GT(measure(DhBits::k1024), measure(DhBits::k512));
}

}  // namespace
}  // namespace sgk
