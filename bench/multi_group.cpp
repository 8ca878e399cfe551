// Multi-group server bench: thousands of concurrent secure groups hosted by
// one GroupServer (src/server), executed across worker threads with
// bit-for-bit deterministic output (ROADMAP item 4's "heavy traffic"
// regime).
//
// Headline metrics (all virtual-time, hence deterministic and CI-gateable):
// groups/sec onboarded, aggregate rekeys/sec, per-group p50/p99
// event-to-key latency under contention. With --wallclock the bench also
// measures real host seconds per thread count and prints the scaling
// table (speedup and efficiency vs. the single-threaded run); wall numbers
// live only in the stdout table and the report's "wallclock" section, so
// the deterministic sections stay byte-identical across thread counts.
//
// Unless --threads pins a single count, the bench sweeps --scale (default
// 1,2,4,8) over the same scenario and verifies that every run's canonical
// JSON is byte-identical to the first — the determinism regression runs
// inside the bench itself on every invocation.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/bench_io.h"
#include "obs/metrics.h"
#include "server/server.h"

using sgk::ProtocolKind;
using sgk::parse_protocols;
using sgk::take_flag;

constexpr const char* kUsage =
    "usage: multi_group [--groups N >= 1] [--members N >= 2] [--events N]\n"
    "                   [--window MS > 0] [--fault-rate R in [0,1]]\n"
    "                   [--protocol all|gdh|ckd|tgdh|str|bd]\n"
    "                   [--scale 1,2,4,8] [--per-group] [--threads N]\n"
    "                   [--seed BASE] [--json out.json]\n"
    "                   [--trace out.trace.json] [--wallclock]\n";

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }

  std::size_t groups = 1000;
  std::size_t members = 4;
  std::size_t events = 2;
  double window_ms = 50.0;
  double fault_rate = 0.0;
  bool per_group = false;
  std::vector<ProtocolKind> protocols;
  parse_protocols("all", protocols);
  std::vector<int> scale = {1, 2, 4, 8};
  bool scale_set = false;
  try {
    for (std::size_t i = 0; i < opts.rest.size(); ++i) {
      std::string value;
      bool ok = true;
      if (take_flag(opts.rest, i, "--groups", value)) {
        ok = sgk::parse_count(value, 1, groups);
      } else if (take_flag(opts.rest, i, "--members", value)) {
        ok = sgk::parse_count(value, 2, members);
      } else if (take_flag(opts.rest, i, "--events", value)) {
        ok = sgk::parse_count(value, 0, events);
      } else if (take_flag(opts.rest, i, "--window", value)) {
        ok = sgk::parse_real(value, window_ms) && window_ms > 0.0;
      } else if (take_flag(opts.rest, i, "--fault-rate", value)) {
        ok = sgk::parse_real(value, fault_rate) && fault_rate >= 0.0 &&
             fault_rate <= 1.0;
      } else if (take_flag(opts.rest, i, "--protocol", value)) {
        ok = parse_protocols(value, protocols);
      } else if (take_flag(opts.rest, i, "--scale", value)) {
        scale = sgk::parse_scale(value);
        scale_set = true;
      } else if (opts.rest[i] == "--per-group") {
        per_group = true;
      } else {
        ok = false;
      }
      if (!ok) throw std::runtime_error("bad argument '" + opts.rest[i] + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 2;
  }
  // --threads pins one count; otherwise the scale list is swept and every
  // run's canonical JSON must match the first byte-for-byte.
  if (opts.threads_set && !scale_set) scale = {opts.threads};

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("multi_group");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("groups", sgk::obs::Json(static_cast<std::uint64_t>(groups)));
    params.set("members", sgk::obs::Json(static_cast<std::uint64_t>(members)));
    params.set("events", sgk::obs::Json(static_cast<std::int64_t>(events)));
    params.set("window_ms", sgk::obs::Json(window_ms));
    params.set("fault_rate", sgk::obs::Json(fault_rate));
    // Deliberately no thread count here: the deterministic sections must be
    // byte-identical for any --threads/--scale (it is recorded in the
    // "wallclock" env instead, where bench_gate refuses a mismatch).
    report.add_section("params", std::move(params));
  }

  auto config_for = [&](int threads) {
    sgk::server::ServerConfig cfg;
    cfg.groups = groups;
    cfg.members_per_group = members;
    cfg.churn_events = static_cast<int>(events);
    cfg.threads = threads;
    cfg.seed = opts.seed;
    cfg.epoch_window_ms = window_ms;
    cfg.protocols = protocols;
    cfg.rates = sgk::fault::FaultRates::uniform(fault_rate);
    cfg.per_group_metrics = per_group;
    return cfg;
  };

  std::size_t failures = 0;
  sgk::obs::Json multi;  // first run's section
  std::ostringstream repro;
  repro << "multi_group --groups=" << groups << " --members=" << members
        << " --events=" << events << " --seed=" << opts.seed;
  const sgk::ThreadSweep sweep = sgk::sweep_thread_scale(
      scale, "", repro.str(), opts.wallclock,
      [&](int threads, bool first) {
        // Later runs only check determinism: the report's metrics describe
        // the first run, so --threads 4 and --scale 1,4 write the same bytes.
        sgk::obs::ScopedMetrics scoped(first ? sgk::obs::metrics() : nullptr);
        sgk::server::GroupServer server(config_for(threads));
        const sgk::server::ServerResult result = server.run();
        sgk::obs::Json json = result.to_json(/*with_groups=*/per_group);
        std::string dump = json.dump(2);
        if (!first) return dump;
        multi = std::move(json);
        failures = result.groups_hosted - result.groups_converged;
        for (const auto& g : result.groups) {
          if (g.converged) continue;
          std::cout << "FAIL group g" << g.id << " ("
                    << sgk::to_string(g.protocol) << "):\n";
          for (const std::string& v : g.violations)
            std::cout << "       " << v << "\n";
        }
        std::cout << "multi_group: " << result.groups_hosted << " groups, "
                  << result.groups_converged << " converged, "
                  << result.rekeys << " rekeys over " << std::fixed
                  << std::setprecision(1) << result.virtual_makespan_ms
                  << "ms virtual (" << result.epochs_executed << " epochs)\n"
                  << "  groups/sec " << std::setprecision(2)
                  << result.groups_per_sec << "  rekeys/sec "
                  << result.rekeys_per_sec << "  onboard p50 "
                  << result.onboard_p50_ms << "ms p99 "
                  << result.onboard_p99_ms << "ms  event-to-key p50 "
                  << result.event_to_key_p50_ms << "ms p99 "
                  << result.event_to_key_p99_ms << "ms\n";
        return dump;
      },
      std::cout);

  report.add_section("multi_group", std::move(multi));

  sweep.print_wall_table(std::cout);

  const bool wrote = session.finish(report);
  return failures == 0 && sweep.determinism_ok && wrote ? 0 : 1;
}
