// Fuzz soak: adversarial wire robustness of the key agreement protocols
// (extension experiment X3; see docs/adversarial_robustness.md).
//
// For every (protocol, mutation rate, seed) triple the soak runs one
// deterministic group through server::run_group (server/group_host.h), with
// the recovery watchdog armed at 400 ms, in which every stamped frame
// and client unicast is mutated with the given probability by the
// structure-aware FrameMutator — bit flips, truncation/extension,
// length-prefix lies, out-of-range bignums, tag swaps, sender spoofing,
// epoch shifts, cross-frame replay. A run passes the tentpole invariant when
// no member crashes, no agreement wedges, and every surviving member
// converges to the same key at the same epoch; every rejected frame is
// counted by typed reason (frames_rejected/<proto>/<reason> counters in the
// --json report).
//
// Seed parity selects the verification regime: even seeds verify signatures
// (the full mutation menu — signatures catch what structure cannot), odd
// seeds run unsigned with the detectable-only menu (strict validation alone
// must hold the line). Each failing run prints a one-line repro command that
// replays the identical schedule bit-for-bit.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_io.h"
#include "obs/metrics.h"
#include "server/group_host.h"

namespace {

using sgk::ProtocolKind;
using sgk::lower_name;
using sgk::parse_protocols;
using sgk::take_flag;

// Comma-separated mutation rates, each in (0,1]. Returns false for an
// empty list or a bad entry.
bool parse_rates(const std::string& csv, std::vector<double>& out) {
  std::vector<double> rates;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    double r = 0.0;
    if (!sgk::parse_real(item, r) || r <= 0.0 || r > 1.0) return false;
    rates.push_back(r);
  }
  if (rates.empty()) return false;
  out = std::move(rates);
  return true;
}

constexpr const char* kUsage =
    "usage: fuzz_soak [--protocol all|gdh|ckd|tgdh|str|bd] [--seeds N >= 1]\n"
    "                 [--rates R1,R2,... each in (0,1]] [--group-size N >= 2]\n"
    "                 [--events N] [--seed BASE] [--json out.json]\n"
    "                 [--trace out.trace.json]\n";

}  // namespace

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }

  std::vector<ProtocolKind> protocols;
  parse_protocols("all", protocols);
  std::size_t seeds = 32;
  std::vector<double> rates = {0.02, 0.05};
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
      } else if (take_flag(opts.rest, i, "--rates", value)) {
        ok = parse_rates(value, rates);
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
  sgk::obs::RunReport report("fuzz_soak");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("seeds", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
    sgk::obs::Json jrates = sgk::obs::Json::array();
    for (double r : rates) jrates.push(sgk::obs::Json(r));
    params.set("rates", std::move(jrates));
    params.set("group_size",
               sgk::obs::Json(static_cast<std::uint64_t>(group_size)));
    params.set("events", sgk::obs::Json(static_cast<std::int64_t>(events)));
    report.add_section("params", std::move(params));
  }

  int total_runs = 0, failures = 0, crashes = 0;
  sgk::obs::Json fuzz = sgk::obs::Json::object();
  for (ProtocolKind kind : protocols) {
    const char* proto = sgk::to_string(kind);
    sgk::obs::Json per_rate = sgk::obs::Json::object();
    for (double rate : rates) {
      std::ostringstream rate_fmt;
      rate_fmt << rate;
      const std::string rate_str = rate_fmt.str();
      std::vector<double> converge_ms;
      std::uint64_t mutated = 0, rejected = 0, recoveries = 0;
      int converged = 0;
      for (std::size_t s = 0; s < seeds; ++s) {
        const std::uint64_t seed = opts.seed + s;
        sgk::server::GroupSpec spec;
        spec.protocol = kind;
        spec.seed = seed;
        spec.initial_size = group_size;
        spec.churn_events = static_cast<int>(events);
        spec.rates = sgk::fault::FaultRates::uniform(0.1);
        spec.mutation_rate = rate;
        // Parity regime: even seeds keep signatures on and face the full
        // mutation menu; odd seeds drop signatures and face the menu strict
        // validation alone provably catches.
        spec.verify_signatures = seed % 2 == 0;
        // Long enough for honest agreements to finish, short enough to retry
        // well inside the grace period when a replay erased a frame outright.
        spec.recovery_watchdog_ms = 400.0;
        const sgk::server::GroupReport r =
            sgk::server::run_group(spec);
        ++total_runs;
        mutated += r.wire.frames_mutated;
        rejected += r.frames_rejected;
        recoveries += r.recoveries;
        if (r.crashed) ++crashes;
        if (r.converged) {
          ++converged;
          converge_ms.push_back(r.convergence_ms);
          std::cout << "ok   " << std::left << std::setw(9) << proto
                    << " rate=" << rate_str << " seed=" << std::setw(4) << seed
                    << (seed % 2 == 0 ? " sig=on " : " sig=off") << std::fixed
                    << std::setprecision(1)
                    << " converge=" << r.convergence_ms
                    << "ms mutated=" << r.wire.frames_mutated
                    << " rejected=" << r.frames_rejected
                    << " recoveries=" << r.recoveries
                    << " key=" << r.fingerprint << "\n";
        } else {
          ++failures;
          std::cout << "FAIL " << std::left << std::setw(9) << proto
                    << " rate=" << rate_str << " seed=" << seed << ":\n";
          for (const std::string& v : r.violations)
            std::cout << "       " << v << "\n";
          std::ostringstream repro;
          repro << "fuzz_soak --protocol=" << lower_name(kind)
                << " --seeds=1 --seed=" << seed << " --rates=" << rate_str
                << " --group-size=" << group_size << " --events=" << events;
          std::cout << "       repro: " << repro.str() << "\n";
        }
        if (sgk::obs::MetricsRegistry* mr = sgk::obs::metrics()) {
          mr->histogram(std::string("fuzz/convergence_ms/") + proto)
              .observe(r.convergence_ms);
          if (!r.converged)
            mr->counter(std::string("fuzz/failures/") + proto).add();
        }
      }
      sgk::obs::Json entry = sgk::obs::Json::object();
      entry.set("runs", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
      entry.set("converged",
                sgk::obs::Json(static_cast<std::int64_t>(converged)));
      entry.set("frames_mutated", sgk::obs::Json(mutated));
      entry.set("frames_rejected", sgk::obs::Json(rejected));
      entry.set("recoveries", sgk::obs::Json(recoveries));
      entry.set("convergence_median_ms",
                sgk::obs::Json(sgk::obs::sample_quantile(converge_ms, 0.5)));
      entry.set("convergence_p95_ms",
                sgk::obs::Json(sgk::obs::sample_quantile(converge_ms, 0.95)));
      per_rate.set(rate_str, std::move(entry));
    }
    fuzz.set(proto, std::move(per_rate));
  }
  report.add_section("fuzz", std::move(fuzz));

  std::cout << "\nfuzz_soak: " << total_runs << " runs, "
            << total_runs - failures << " survived, " << failures
            << " failed, " << crashes << " crashed\n";

  const bool wrote = session.finish(report);
  return failures == 0 && crashes == 0 && wrote ? 0 : 1;
}
