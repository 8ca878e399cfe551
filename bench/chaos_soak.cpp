// Chaos soak: robustness of the key agreement protocols under cascaded
// membership churn and injected wire faults (extension experiment X2; the
// paper's section 7 leaves fault-tolerance measurements as future work).
//
// For every (protocol, seed) pair the soak runs one deterministic group
// through server::run_group (server/group_host.h): --group-size members
// suffer --events randomized membership faults — joins, leaves, daemon
// crashes, partitions, heals, rekeys — with gaps short enough to land
// inside the previous event's agreement, while every daemon-to-daemon copy
// is subject to --fault-rate drop/delay/duplication. A run passes when
// every surviving member converges to the same key at the same epoch
// (ct_equal) with no epoch regression and no agreement running forever.
//
// Each failing run prints a one-line repro command; re-running it replays
// the identical schedule (the whole run is a pure function of the flags).
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/bench_io.h"
#include "obs/metrics.h"
#include "server/group_host.h"

using sgk::ProtocolKind;
using sgk::lower_name;
using sgk::parse_protocols;
using sgk::take_flag;

constexpr const char* kUsage =
    "usage: chaos_soak [--protocol all|gdh|ckd|tgdh|str|bd] [--seeds N >= 1]\n"
    "                  [--fault-rate R in [0,1]] [--group-size N >= 2]\n"
    "                  [--events N] [--seed BASE] [--json out.json]\n"
    "                  [--trace out.trace.json]\n";

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }

  std::vector<ProtocolKind> protocols;
  parse_protocols("all", protocols);
  std::size_t seeds = 16;
  double fault_rate = 0.1;
  std::size_t group_size = 8;
  std::size_t events = 6;
  try {
    for (std::size_t i = 0; i < opts.rest.size(); ++i) {
      std::string value;
      bool ok = true;
      if (take_flag(opts.rest, i, "--protocol", value)) {
        ok = parse_protocols(value, protocols);
      } else if (take_flag(opts.rest, i, "--seeds", value)) {
        ok = sgk::parse_count(value, 1, seeds);
      } else if (take_flag(opts.rest, i, "--fault-rate", value)) {
        ok = sgk::parse_real(value, fault_rate) && fault_rate >= 0.0 &&
             fault_rate <= 1.0;
      } else if (take_flag(opts.rest, i, "--group-size", value)) {
        ok = sgk::parse_count(value, 2, group_size);
      } else if (take_flag(opts.rest, i, "--events", value)) {
        ok = sgk::parse_count(value, 0, events);
      } else {
        ok = false;
      }
      if (!ok) throw std::runtime_error("bad argument '" + opts.rest[i] + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 2;
  }

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("chaos_soak");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("seeds", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
    params.set("fault_rate", sgk::obs::Json(fault_rate));
    params.set("group_size",
               sgk::obs::Json(static_cast<std::uint64_t>(group_size)));
    params.set("events", sgk::obs::Json(static_cast<std::int64_t>(events)));
    report.add_section("params", std::move(params));
  }

  int total_runs = 0, failures = 0;
  sgk::obs::Json chaos = sgk::obs::Json::object();
  for (ProtocolKind kind : protocols) {
    const char* proto = sgk::to_string(kind);
    std::vector<double> converge_ms;
    std::uint64_t restarts = 0, stale = 0, churn = 0;
    int converged = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed = opts.seed + s;
      sgk::server::GroupSpec spec;
      spec.protocol = kind;
      spec.seed = seed;
      spec.initial_size = group_size;
      spec.churn_events = static_cast<int>(events);
      spec.rates = sgk::fault::FaultRates::uniform(fault_rate);
      // Members keep their default: no recovery watchdog, so convergence
      // comes from the protocols and the membership service alone.
      spec.recovery_watchdog_ms = 0.0;
      const sgk::server::GroupReport r =
          sgk::server::run_group(spec);
      ++total_runs;
      restarts += r.restarts;
      stale += r.stale_dropped;
      churn += r.wire.churn_applied;
      if (r.converged) {
        ++converged;
        converge_ms.push_back(r.convergence_ms);
        std::cout << "ok   " << std::left << std::setw(9) << proto
                  << " seed=" << std::setw(4) << seed << std::fixed
                  << std::setprecision(1) << " converge=" << r.convergence_ms
                  << "ms epoch=" << r.final_epoch
                  << " members=" << r.final_size << " restarts=" << r.restarts
                  << " stale=" << r.stale_dropped << " churn=" << r.wire.churn_applied
                  << " key=" << r.fingerprint << "\n";
      } else {
        ++failures;
        std::cout << "FAIL " << std::left << std::setw(9) << proto
                  << " seed=" << seed << ":\n";
        for (const std::string& v : r.violations)
          std::cout << "       " << v << "\n";
        std::ostringstream repro;
        repro << "chaos_soak --protocol=" << lower_name(kind)
              << " --seeds=1 --seed=" << seed << " --fault-rate=" << fault_rate
              << " --group-size=" << group_size << " --events=" << events;
        std::cout << "       repro: " << repro.str() << "\n";
      }
      if (sgk::obs::MetricsRegistry* mr = sgk::obs::metrics()) {
        mr->histogram(std::string("chaos/convergence_ms/") + proto)
            .observe(r.convergence_ms);
        if (!r.converged)
          mr->counter(std::string("chaos/failures/") + proto).add();
      }
    }
    sgk::obs::Json entry = sgk::obs::Json::object();
    entry.set("runs", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
    entry.set("converged", sgk::obs::Json(static_cast<std::int64_t>(converged)));
    entry.set("restarts", sgk::obs::Json(restarts));
    entry.set("stale_dropped", sgk::obs::Json(stale));
    entry.set("churn_applied", sgk::obs::Json(churn));
    entry.set("convergence_median_ms",
              sgk::obs::Json(sgk::obs::sample_quantile(converge_ms, 0.5)));
    entry.set("convergence_p95_ms",
              sgk::obs::Json(sgk::obs::sample_quantile(converge_ms, 0.95)));
    chaos.set(proto, std::move(entry));
  }
  report.add_section("chaos", std::move(chaos));

  std::cout << "\nchaos_soak: " << total_runs << " runs, "
            << total_runs - failures << " converged, " << failures
            << " failed (fault rate " << fault_rate << ", " << events
            << " events/run)\n";

  const bool wrote = session.finish(report);
  return failures == 0 && wrote ? 0 : 1;
}
