// perfbench: host cost per membership event, one workload per process.
//
//   perfbench_e2e   --workload W --seed N --seconds S [--setup-only]
//   perfbench_trace --workload W --seed N --seconds S
//
// perfbench_e2e times the workload untraced: it prints setup_s (process
// start to the first timed call), the per-rep event rates, the ms of every
// timed call and the peak RSS. Times are rescaled by the speed probe
// (speed.h); the raw set-up time and event rate are printed beside them.
// With --setup-only it stops after set-up, so run.py can take the median
// set-up time over fresh processes.
//
// perfbench_trace is the same program linked with the layer wrappers. It
// runs rep 0 untraced (the correctness check), then pairs of reps with the
// same inputs, first untraced and then traced, and prints per-layer self
// times from the traced halves plus the tracing overhead from the pairs.
//
// The last stdout line is one JSON object; run.py turns it into the
// benchmark's result line.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "speed.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using perfbench::now_ns;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool setup_only = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--setup-only") {
      a.setup_only = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

/// Linear-interpolated quantile of `v` (sorted in place).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Peak resident set of this process image. getrusage's ru_maxrss would
/// also count the forked parent's pages from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Flat JSON object writer (numbers at full precision).
class JsonLine {
 public:
  JsonLine& num(const std::string& k, double v) {
    std::ostringstream s;
    s.precision(17);
    s << (std::isfinite(v) ? v : 0.0);
    return raw(k, s.str());
  }
  JsonLine& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  JsonLine& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Keep starting reps (or pairs) while the next one is expected to end
/// inside the time budget; always at least one.
bool more(std::uint64_t started_ns, int done, double seconds) {
  const double elapsed = static_cast<double>(now_ns() - started_ns) / 1e9;
  return elapsed + 0.5 * elapsed / done < seconds;
}

[[maybe_unused]] int run_e2e(const Args& a, perfbench::Workload& w,
                             double setup_s, double setup_raw_s) {
  perfbench::RunTotals t;
  std::vector<double> rates, raw_rates, steps;
  std::uint64_t digest = 0;
  const std::uint64_t start = now_ns();
  int reps = 0;
  do {
    perfbench::RepOutcome o = w.run_rep(reps, /*collect_counts=*/false);
    if (reps == 0) digest = o.digest;
    t.add(o);
    rates.push_back(static_cast<double>(o.events) / o.wall_s);
    raw_rates.push_back(static_cast<double>(o.events) / o.raw_wall_s);
    steps.insert(steps.end(), o.step_ms.begin(), o.step_ms.end());
    ++reps;
  } while (more(start, reps, a.seconds));

  JsonLine j;
  j.str("workload", a.workload)
      .num("seed", static_cast<double>(a.seed))
      .num("reps", reps)
      .num("attempted", static_cast<double>(t.attempted))
      .num("failed", static_cast<double>(t.failed))
      .num("events", static_cast<double>(t.events))
      .str("digest_rep0", hex(digest))
      .num("setup_s", setup_s)
      .num("setup_s_raw", setup_raw_s)
      .num("events_per_host_s", quantile(rates, 0.5))
      .num("events_per_host_s_raw", quantile(raw_rates, 0.5))
      .num("speed_factor", perfbench::speed_factor())
      .num("step_samples", static_cast<double>(steps.size()))
      .num("step_wall_ms_p50", quantile(steps, 0.5))
      .num("step_wall_ms_p95", quantile(steps, 0.95))
      .num("peak_rss_mb", peak_rss_mb());
  std::cout << j.done() << std::endl;
  return 0;
}

[[maybe_unused]] int run_trace(const Args& a, perfbench::Workload& w,
                               const perfbench::Buffer& setup) {
  perfbench::RunTotals check, traced;
  const std::uint64_t start = now_ns();
  const perfbench::RepOutcome first = w.run_rep(0, /*collect_counts=*/false);
  check.add(first);

  double untraced_ns = 0, traced_ns = 0;
  int pairs = 0;
  do {
    const int rep = pairs + 1;
    std::uint64_t t0 = now_ns();
    check.add(w.run_rep(rep, false));
    untraced_ns += static_cast<double>(now_ns() - t0);

    perfbench::set_enabled(true);
    t0 = now_ns();
    const perfbench::RepOutcome o = w.run_rep(rep, /*collect_counts=*/true);
    traced_ns += static_cast<double>(now_ns() - t0);
    perfbench::set_enabled(false);
    check.add(o);
    traced.add(o);
    ++pairs;
  } while (more(start, pairs, a.seconds));

  perfbench::TraceWindow win;
  win.wall_ns = traced_ns;
  win.untraced_wall_ns = untraced_ns;
  win.threads = w.threads();
  win.events = static_cast<double>(traced.events);
  const std::map<std::string, double> m =
      perfbench::per_layer_metrics(perfbench::merged(), setup, win, traced);

  JsonLine layers;
  for (const auto& [name, value] : m) layers.num(name, value);
  JsonLine j;
  j.str("workload", a.workload)
      .num("seed", static_cast<double>(a.seed))
      .num("reps", pairs * 2 + 1)
      .num("attempted", static_cast<double>(check.attempted))
      .num("failed", static_cast<double>(check.failed))
      .str("digest_rep0", hex(first.digest))
      .raw("layers", layers.done());
  std::cout << j.done() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  [[maybe_unused]] const std::uint64_t process_start = now_ns();
  Args a;
  if (!parse(argc, argv, a)) {
    std::cerr << "usage: " << argv[0]
              << " --workload NAME --seed N --seconds S [--setup-only]\n";
    return 2;
  }
  try {
    std::unique_ptr<perfbench::Workload> w =
        perfbench::make_workload(a.workload, a.seed);
#ifdef PERFBENCH_TRACED
    // Set-up is traced on its own, so work moved into it shows as counts.
    perfbench::set_enabled(true);
    w->setup();
    perfbench::set_enabled(false);
    const perfbench::Buffer setup = perfbench::merged();
    perfbench::reset();
    return run_trace(a, *w, setup);
#else
    w->setup();
    const double setup_raw_s =
        static_cast<double>(now_ns() - process_start) / 1e9;
    perfbench::set_probing(w->probe());
    for (int i = 0; i < 5; ++i) perfbench::probe_now();
    const double setup_s = setup_raw_s * perfbench::speed_factor();
    if (a.setup_only) {
      std::cout << JsonLine()
                       .num("setup_s", setup_s)
                       .num("setup_s_raw", setup_raw_s)
                       .done()
                << std::endl;
      return 0;
    }
    return run_e2e(a, *w, setup_s, setup_raw_s);
#endif
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
