// Tests of the benchmark itself: the tracer's arithmetic and merge, the
// metric names, and each workload at unit size (untraced and traced).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::size_t at(Site s) { return static_cast<std::size_t>(s); }

TEST(Tracer, NestedSelfTimesSumToTheParent) {
  Buffer buf;
  ThreadTrace t(&buf);
  t.enter(Site::kSimRun, 0);        // 100 ns in total
  t.enter(Site::kOnMessage, 10);    // 30 ns, 10 of them in an exp
  t.enter(Site::kExp512Full, 15);
  t.leave(25);
  t.leave(40);
  t.enter(Site::kSend, 50);         // 10 ns
  t.leave(60);
  t.leave(100);
  EXPECT_EQ(t.depth(), 0u);

  EXPECT_EQ(buf.sites[at(Site::kSimRun)].incl_ns, 100u);
  EXPECT_EQ(buf.sites[at(Site::kSimRun)].self_ns, 60u);
  EXPECT_EQ(buf.sites[at(Site::kOnMessage)].self_ns, 20u);
  EXPECT_EQ(buf.sites[at(Site::kExp512Full)].self_ns, 10u);
  EXPECT_EQ(buf.sites[at(Site::kSend)].self_ns, 10u);
  std::uint64_t self_sum = 0;
  for (const SiteStats& s : buf.sites) self_sum += s.self_ns;
  EXPECT_EQ(self_sum, buf.sites[at(Site::kSimRun)].incl_ns);
  ASSERT_EQ(buf.samples[at(Site::kExp512Full)].size(), 1u);
  EXPECT_EQ(buf.samples[at(Site::kExp512Full)][0], 10u);
}

TEST(Tracer, LayerSharesWaitAndResidualSumToOne) {
  // Main thread: 1000 ns timed, of which an epoch of 400 ns; two shard
  // threads were busy 300 and 200 ns of it.
  Buffer b;
  b.sites[at(Site::kServerRun)] = {1, 900, 500};
  b.sites[at(Site::kEpoch)] = {1, 400, 400};
  b.sites[at(Site::kShard)] = {2, 500, 100};
  b.sites[at(Site::kExp512Full)] = {5, 400, 400};
  TraceWindow w;
  w.wall_ns = 1000;
  w.threads = 2;
  w.events = 4;
  const auto m = layer_metrics(b, w);
  // Budget: 1000 + (2 - 1) * 400 = 1400; wait: 2 * 400 - 500 = 300.
  EXPECT_DOUBLE_EQ(m.at("trace.wait_share"), 300.0 / 1400);
  EXPECT_DOUBLE_EQ(m.at("server.barrier_wait_share"), 1.0 - 500.0 / 800);
  double total = m.at("trace.wait_share") + m.at("trace.residual_share");
  for (const char* l : {"bignum", "crypto", "core", "gcs", "server", "obs",
                        "harness"}) {
    total += m.at(std::string(l) + ".self_share");
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.at("bignum.exp_calls"), 5.0 / 4);
}

TEST(Tracer, MergeDoesNotDependOnBufferOrder) {
  std::vector<Buffer> bufs(4);
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    bufs[i].shard = static_cast<int>(i) - 1;
    bufs[i].order = 10 - i;
    bufs[i].sites[at(Site::kVerify)] = {i + 1, 100 * (i + 1), 50 * (i + 1)};
    bufs[i].samples[at(Site::kVerify)] = {static_cast<std::uint32_t>(7 - i),
                                          static_cast<std::uint32_t>(i)};
    bufs[i].sim_events = i;
  }
  std::vector<const Buffer*> order = {&bufs[0], &bufs[1], &bufs[2], &bufs[3]};
  const Buffer first = merge(order);
  std::reverse(order.begin(), order.end());
  const Buffer second = merge(order);
  std::swap(order[0], order[2]);
  const Buffer third = merge(order);
  for (const Buffer* b : {&second, &third}) {
    EXPECT_EQ(b->sites[at(Site::kVerify)].calls, first.sites[at(Site::kVerify)].calls);
    EXPECT_EQ(b->sites[at(Site::kVerify)].self_ns,
              first.sites[at(Site::kVerify)].self_ns);
    EXPECT_EQ(b->samples[at(Site::kVerify)], first.samples[at(Site::kVerify)]);
    EXPECT_EQ(b->sim_events, first.sim_events);
  }
  EXPECT_EQ(first.sites[at(Site::kVerify)].calls, 10u);
  EXPECT_TRUE(std::is_sorted(first.samples[at(Site::kVerify)].begin(),
                             first.samples[at(Site::kVerify)].end()));
}

TEST(Tracer, EveryThreadRecordsIntoItsOwnBuffer) {
  reset();
  set_enabled(true);
  std::vector<std::thread> threads;
  for (int shard = 0; shard < 3; ++shard) {
    threads.emplace_back([shard] {
      bind_shard(shard);
      for (int i = 0; i <= shard; ++i) Span span(Site::kAdvance);
    });
  }
  for (auto& t : threads) t.join();
  set_enabled(false);
  EXPECT_EQ(merged().sites[at(Site::kAdvance)].calls, 6u);
  reset();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Names of the entries of one metric list in BENCHMARK.json.
std::set<std::string> listed_names(const std::string& json,
                                   const std::string& list) {
  const std::size_t start = json.find("\"" + list + "\"");
  const std::size_t end = json.find(']', start);
  const std::string section = json.substr(start, end - start);
  std::set<std::string> names;
  const std::regex name_re("\"name\": \"([^\"]*)\"");
  for (auto it = std::sregex_iterator(section.begin(), section.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

TEST(Metrics, NamesMatchThePatternAndTheBenchmarkFile) {
  const std::string json = read_file(PERFBENCH_ROOT "/BENCHMARK.json");
  ASSERT_FALSE(json.empty());
  const std::regex pattern("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::set<std::string> e2e = listed_names(json, "end_to_end");
  const std::set<std::string> layers = listed_names(json, "per_layer");
  EXPECT_TRUE(e2e.count("setup_s"));
  for (const std::set<std::string>* names : {&e2e, &layers}) {
    for (const std::string& n : *names) EXPECT_TRUE(std::regex_match(n, pattern)) << n;
  }
  std::set<std::string> produced;
  for (const auto& [name, value] :
       per_layer_metrics(Buffer{}, Buffer{}, TraceWindow{}, RunTotals{})) {
    EXPECT_TRUE(std::regex_match(name, pattern)) << name;
    produced.insert(name);
  }
  EXPECT_EQ(produced, layers);
}

TEST(Workloads, EachPassesItsCorrectnessCheckAtUnitSize) {
  for (const std::string& name : workload_names()) {
    SCOPED_TRACE(name);
    auto w = make_workload(name, 1, Scale{true, 2});
    w->setup();
    for (int rep = 0; rep < 2; ++rep) {
      const RepOutcome o = w->run_rep(rep, false);
      EXPECT_GE(o.attempted, 1u);
      EXPECT_EQ(o.failed, 0u);
      EXPECT_GE(o.events, 1u);
      EXPECT_FALSE(o.step_ms.empty());
      EXPECT_GT(o.wall_s, 0.0);
    }
  }
  EXPECT_THROW(make_workload("nosuch", 1), std::invalid_argument);
}

TEST(Workloads, SameSeedSameVirtualOutputs) {
  for (const std::string& name : workload_names()) {
    SCOPED_TRACE(name);
    auto a = make_workload(name, 7, Scale{true, 2});
    auto b = make_workload(name, 7, Scale{true, 2});
    a->setup();
    EXPECT_EQ(a->run_rep(0, false).digest, b->run_rep(0, false).digest);
    // The null protocol's virtual timings do not depend on which member
    // leaves, so only the other workloads' outputs differ between reps.
    if (name != "membership_only") {
      EXPECT_NE(a->run_rep(1, false).digest, a->run_rep(2, false).digest);
    }
  }
}

TEST(Workloads, ServerJsonIsIdenticalAtOneAndTwoThreads) {
  for (const char* name : {"server_mix", "storm_faulty"}) {
    SCOPED_TRACE(name);
    const RepOutcome one = make_workload(name, 3, Scale{true, 1})->run_rep(0, false);
    const RepOutcome two = make_workload(name, 3, Scale{true, 2})->run_rep(0, false);
    EXPECT_FALSE(one.canonical.empty());
    EXPECT_EQ(one.canonical, two.canonical);
  }
}

/// One traced rep at unit size.
Buffer traced_rep(const std::string& name, RepOutcome* out = nullptr) {
  auto w = make_workload(name, 1, Scale{true, 2});
  reset();
  set_enabled(true);
  const RepOutcome o = w->run_rep(1, true);
  set_enabled(false);
  if (out != nullptr) *out = o;
  Buffer b = merged();
  reset();
  return b;
}

std::uint64_t exp_calls(const Buffer& b) {
  std::uint64_t n = 0;
  for (Site s : {Site::kExp512Full, Site::kExp512Small, Site::kExp1024Full,
                 Site::kExp1024Small}) {
    n += b.sites[at(s)].calls;
  }
  return n;
}

TEST(TracedWorkloads, ServerSpansIncludeWorkerThreads) {
  const Buffer b = traced_rep("server_mix");
  EXPECT_GT(b.sites[at(Site::kEpoch)].calls, 0u);
  // Two shard threads each ran a slice of every epoch.
  EXPECT_EQ(b.sites[at(Site::kShard)].calls, 2 * b.sites[at(Site::kEpoch)].calls);
  EXPECT_GT(b.sites[at(Site::kAdvance)].calls, 0u);
  EXPECT_GT(b.sites[at(Site::kOnboard)].calls, 0u);
  EXPECT_GT(exp_calls(b), 0u);
  EXPECT_GT(b.sites[at(Site::kObserve)].calls, 0u);
}

TEST(TracedWorkloads, MembershipOnlyDoesNoExponentiation) {
  RepOutcome o;
  const Buffer b = traced_rep("membership_only", &o);
  EXPECT_EQ(exp_calls(b), 0u);
  EXPECT_EQ(b.sites[at(Site::kSign)].calls, 0u);
  EXPECT_EQ(b.sites[at(Site::kMeasure)].calls, o.events);
  EXPECT_GT(b.sim_events, 0u);
}

TEST(TracedWorkloads, SweepSelfTimesFitInsideTheTracedWall) {
  auto w = make_workload("sweep_1024", 1, Scale{true, 2});
  reset();
  set_enabled(true);
  const std::uint64_t t0 = now_ns();
  const RepOutcome o = w->run_rep(1, true);
  const std::uint64_t wall = now_ns() - t0;
  set_enabled(false);
  const Buffer b = merged();
  reset();
  TraceWindow win;
  win.wall_ns = static_cast<double>(wall);
  win.events = static_cast<double>(o.events);
  const auto m = layer_metrics(b, win);
  EXPECT_GE(m.at("trace.residual_share"), 0.0);
  EXPECT_LT(m.at("trace.residual_share"), 0.5);
  EXPECT_GT(m.at("bignum.exp1024_self_ms"), 0.0);
  EXPECT_GT(m.at("crypto.verify_calls"), 0.0);
  EXPECT_GT(m.at("harness.self_share"), 0.0);
}

}  // namespace
}  // namespace perfbench
