// Churn-storm resilience bench: the same bursty membership storm executed
// twice by the multi-group server — once with per-event rekeying (the
// batcher in zero-window passthrough, so event-arrival -> key attribution
// is measured identically) and once with the adaptive coalescing pipeline —
// and the two outcomes contrasted.
//
// Headline metrics (all virtual-time, hence deterministic and CI-gateable):
// sustained rekeys/sec, keys-per-membership-event amortization
// (rekeys_per_event), and p99 event-arrival -> new-key latency per mode.
// The bench enforces the robustness acceptance criteria itself: every group
// must converge in BOTH modes, batched rekeys_per_event must stay below
// 0.5, and the batched p99 must be strictly lower than the unbatched p99 —
// any miss fails the exit code, so a regressed pipeline fails on its own,
// before CI compares the report with its committed baseline.
//
// Unless --threads pins a single count, both modes sweep --scale (default
// 1,2,4) over the same scenario and verify that every run's canonical JSON
// is byte-identical to that mode's first run — the determinism regression
// runs inside the bench on every invocation, exactly like bench/multi_group.
//
// The report carries one ServerResult document per mode under the
// "churn_storm" section and stamps schema sgk-bench/3 (the batch payload).
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

namespace {

using sgk::ProtocolKind;
using sgk::parse_protocols;
using sgk::take_flag;

/// One rekey mode's outcome across the scale sweep: the first run's result
/// and deterministic document plus the sweep's verdict over later runs.
struct ModeOutcome {
  sgk::server::ServerResult result;  // first run
  sgk::obs::Json json;               // first run's canonical document
  std::size_t failures = 0;  // hosted - converged on the first run
  sgk::ThreadSweep sweep;
};

constexpr const char* kUsage =
    "usage: churn_storm [--groups N >= 1] [--members N >= 2]\n"
    "                   [--events N >= 1] [--burst N >= 1]\n"
    "                   [--window-min MS >= 0] [--window-max MS >= min]\n"
    "                   [--budget MS] [--protocol all|gdh|ckd|tgdh|str|bd]\n"
    "                   [--scale 1,2,4] [--threads N] [--seed BASE]\n"
    "                   [--json out.json] [--trace out.trace.json]\n"
    "                   [--wallclock]\n";

}  // namespace

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }

  std::size_t groups = 30;
  std::size_t members = 5;
  std::size_t events = 24;
  std::size_t burst = 6;
  double window_min_ms = 4.0;
  double window_max_ms = 256.0;
  double budget_ms = 3000.0;
  std::vector<ProtocolKind> protocols;
  parse_protocols("all", protocols);
  std::vector<int> scale = {1, 2, 4};
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
        ok = sgk::parse_count(value, 1, events);
      } else if (take_flag(opts.rest, i, "--burst", value)) {
        ok = sgk::parse_count(value, 1, burst);
      } else if (take_flag(opts.rest, i, "--window-min", value)) {
        ok = sgk::parse_real(value, window_min_ms) && window_min_ms >= 0.0;
      } else if (take_flag(opts.rest, i, "--window-max", value)) {
        ok = sgk::parse_real(value, window_max_ms);
      } else if (take_flag(opts.rest, i, "--budget", value)) {
        ok = sgk::parse_real(value, budget_ms);
      } else if (take_flag(opts.rest, i, "--protocol", value)) {
        ok = parse_protocols(value, protocols);
      } else if (take_flag(opts.rest, i, "--scale", value)) {
        scale = sgk::parse_scale(value);
        scale_set = true;
      } else {
        ok = false;
      }
      if (!ok) throw std::runtime_error("bad argument '" + opts.rest[i] + "'");
    }
    if (window_max_ms < window_min_ms)
      throw std::runtime_error("need --window-min <= --window-max");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 2;
  }
  if (opts.threads_set && !scale_set) scale = {opts.threads};

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("churn_storm");
  report.set_schema(sgk::obs::kBenchSchemaBatch);
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("groups", sgk::obs::Json(static_cast<std::uint64_t>(groups)));
    params.set("members", sgk::obs::Json(static_cast<std::uint64_t>(members)));
    params.set("events", sgk::obs::Json(static_cast<std::int64_t>(events)));
    params.set("burst", sgk::obs::Json(static_cast<std::int64_t>(burst)));
    params.set("window_min_ms", sgk::obs::Json(window_min_ms));
    params.set("window_max_ms", sgk::obs::Json(window_max_ms));
    params.set("latency_budget_ms", sgk::obs::Json(budget_ms));
    // Deliberately no thread count here: the deterministic sections must be
    // byte-identical for any --threads/--scale (it is recorded in the
    // "wallclock" env instead, where bench_gate refuses a mismatch).
    report.add_section("params", std::move(params));
  }

  // Both modes run the batcher so event-arrival -> key latency is attributed
  // the same way; "unbatched" pins the window to zero, which flushes every
  // event on the next simulator turn — per-event rekeying with batch
  // accounting.
  auto config_for = [&](int threads, bool batched) {
    sgk::server::ServerConfig cfg;
    cfg.groups = groups;
    cfg.members_per_group = members;
    cfg.churn_events = static_cast<int>(events);
    cfg.threads = threads;
    cfg.seed = opts.seed;
    cfg.protocols = protocols;
    cfg.storm = sgk::server::StormKind::kBursty;
    cfg.burst_size = static_cast<int>(burst);
    cfg.batch.enabled = true;
    cfg.batch.min_window_ms = batched ? window_min_ms : 0.0;
    cfg.batch.max_window_ms = batched ? window_max_ms : 0.0;
    cfg.batch.latency_budget_ms = budget_ms;
    return cfg;
  };

  std::ostringstream repro;
  repro << "churn_storm --groups=" << groups << " --members=" << members
        << " --events=" << events << " --burst=" << burst
        << " --seed=" << opts.seed;
  std::vector<ModeOutcome> modes;
  for (const bool batched : {false, true}) {
    ModeOutcome mode;
    const std::string label = batched ? "batched" : "unbatched";
    mode.sweep = sgk::sweep_thread_scale(
        scale, label, repro.str(), opts.wallclock,
        [&](int threads, bool first) {
          // Later runs only check determinism: the report's metrics describe
          // each mode's first run, whatever the --scale list.
          sgk::obs::ScopedMetrics scoped(first ? sgk::obs::metrics() : nullptr);
          sgk::server::GroupServer server(config_for(threads, batched));
          sgk::server::ServerResult result = server.run();
          sgk::obs::Json json = result.to_json(/*with_groups=*/false);
          std::string dump = json.dump(2);
          if (!first) return dump;
          mode.failures = result.groups_hosted - result.groups_converged;
          for (const auto& g : result.groups) {
            if (g.converged) continue;
            std::cout << "FAIL " << label << " group g" << g.id << " ("
                      << sgk::to_string(g.protocol) << "):\n";
            for (const std::string& v : g.violations)
              std::cout << "       " << v << "\n";
          }
          std::cout << label << ": " << result.groups_converged << "/"
                    << result.groups_hosted << " converged, " << result.rekeys
                    << " rekeys for " << result.events_applied
                    << " events (" << std::fixed << std::setprecision(3)
                    << result.rekeys_per_event << " keys/event), "
                    << result.batch_flushes << " flushes, "
                    << result.batch_coalesced << " coalesced, "
                    << result.batch_shed << " shed\n"
                    << "  event-to-key p50 " << std::setprecision(1)
                    << result.batch_event_to_key_p50_ms << "ms p99 "
                    << result.batch_event_to_key_p99_ms << "ms  rekeys/sec "
                    << std::setprecision(2) << result.rekeys_per_sec
                    << "  makespan " << std::setprecision(1)
                    << result.virtual_makespan_ms << "ms  degraded "
                    << result.degraded_entries << " in / "
                    << result.degraded_exits << " out\n";
          mode.result = std::move(result);
          mode.json = std::move(json);
          return dump;
        },
        std::cout);
    modes.push_back(std::move(mode));
  }

  const ModeOutcome& unbatched = modes[0];
  const ModeOutcome& batched = modes[1];

  // Robustness acceptance criteria, enforced here so a regressed pipeline
  // fails by its exit code, whatever its report says.
  bool criteria_ok = true;
  auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "criterion ok:  " : "criterion FAIL: ") << what << "\n";
    criteria_ok = criteria_ok && ok;
  };
  check(unbatched.failures == 0 && batched.failures == 0,
        "all groups converge in both modes");
  {
    std::ostringstream what;
    what << "batched keys/event " << std::fixed << std::setprecision(3)
         << batched.result.rekeys_per_event << " < 0.5";
    check(batched.result.rekeys_per_event < 0.5, what.str());
  }
  {
    std::ostringstream what;
    what << "batched p99 " << std::fixed << std::setprecision(1)
         << batched.result.batch_event_to_key_p99_ms << "ms < unbatched p99 "
         << unbatched.result.batch_event_to_key_p99_ms << "ms";
    check(batched.result.batch_event_to_key_p99_ms <
              unbatched.result.batch_event_to_key_p99_ms,
          what.str());
  }

  {
    sgk::obs::Json storm = sgk::obs::Json::object();
    storm.set("unbatched", unbatched.json);
    storm.set("batched", batched.json);
    sgk::obs::Json contrast = sgk::obs::Json::object();
    contrast.set("rekeys_saved",
                 sgk::obs::Json(unbatched.result.rekeys >= batched.result.rekeys
                                    ? unbatched.result.rekeys -
                                          batched.result.rekeys
                                    : 0));
    contrast.set(
        "p99_speedup",
        sgk::obs::Json(batched.result.batch_event_to_key_p99_ms > 0.0
                           ? unbatched.result.batch_event_to_key_p99_ms /
                                 batched.result.batch_event_to_key_p99_ms
                           : 0.0));
    contrast.set("criteria_ok", sgk::obs::Json(criteria_ok));
    storm.set("contrast", std::move(contrast));
    report.add_section("churn_storm", std::move(storm));
  }

  // Host-time scaling for the batched sweep.
  batched.sweep.print_wall_table(std::cout);

  const bool wrote = session.finish(report);
  const bool determinism_ok =
      unbatched.sweep.determinism_ok && batched.sweep.determinism_ok;
  return criteria_ok && determinism_ok && wrote ? 0 : 1;
}
