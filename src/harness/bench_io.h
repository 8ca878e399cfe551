// Shared command-line handling and observability plumbing for the bench
// binaries: every bench gains `--json <path>` (schema-versioned BENCH_*.json
// RunReport) and `--trace <path>` (Chrome trace_event file for Perfetto /
// chrome://tracing) through this header. See docs/observability.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.h"
#include "obs/run_report.h"

namespace sgk {

/// Observability flags shared by every bench binary. Flags this parser does
/// not recognize (and all positional arguments) pass through in `rest`, in
/// their original order, so each bench keeps its own argument handling.
struct BenchOptions {
  std::string json_path;   // --json <path>
  std::string trace_path;  // --trace <path>
  /// --seed <n>: base seed for the bench's randomized choices. Recorded in
  /// the RunReport ("seed" section) so a BENCH_*.json names the run it came
  /// from and any result can be reproduced from the file alone.
  std::uint64_t seed = 1;
  bool seed_set = false;   // --seed was given explicitly
  /// --wallclock: also profile real host-clock ns/op at the instrumented
  /// sites (see obs/wallclock.h). Off by default; without it no host clock
  /// is read and all output stays byte-identical to a flagless run.
  bool wallclock = false;
  /// --threads <n>: worker threads for benches that parallelize (others
  /// ignore it). Recorded inside the report's "wallclock" env — wall
  /// trajectories from different thread counts must never be compared
  /// silently (tools/bench_gate refuses) — and deliberately NOT in any
  /// deterministic section: the same scenario at any thread count must
  /// produce byte-identical v1 report bytes.
  int threads = 1;
  bool threads_set = false;  // --threads was given explicitly
  std::vector<std::string> rest;

  bool observing() const { return !json_path.empty() || !trace_path.empty(); }

  /// Parses argv (argv[0] is skipped). Recognized flags accept both
  /// `--flag value` and `--flag=value`. Returns false and fills `error` when
  /// a recognized flag is missing or has a malformed argument.
  static bool parse(int argc, char** argv, BenchOptions& out,
                    std::string& error);
};

/// Scoped installation of the process-global metrics registry and tracer.
/// While an ObsSession with observing options is alive, the harness and the
/// instrumented simulator record into its sinks; `finish` folds the collected
/// state into a RunReport and writes the files the flags requested. When the
/// options request nothing, the session is a no-op and `finish` only prints
/// nothing and succeeds.
///
/// With `--wallclock` the session additionally installs a WallProfiler
/// (self-calibrating at construction), so the WallScope sites record real
/// ns/op while the run proceeds. `finish` then prints a per-site summary
/// table on stdout and, when --json was also given, bumps the report schema
/// to kBenchSchemaWallclock and appends the "wallclock" section — the only
/// part of the report allowed to differ between two identical runs.
class ObsSession {
 public:
  explicit ObsSession(const BenchOptions& opts);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  obs::Tracer* tracer() const { return tracer_.get(); }
  obs::WallProfiler* wall() const { return wall_.get(); }

  /// Adds the metrics + span-rollup (and, with --wallclock, wallclock)
  /// sections to `report`, then writes the --json and --trace files.
  /// Failures are reported on stderr; returns false if any write failed.
  bool finish(obs::RunReport& report);

 private:
  const BenchOptions opts_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::WallProfiler> wall_;
  obs::MetricsRegistry* prev_metrics_ = nullptr;
  obs::Tracer* prev_tracer_ = nullptr;
  obs::WallProfiler* prev_wall_ = nullptr;
};

/// Parses a --protocol value, case-insensitively: "all" (the five paper
/// protocols), gdh, ckd, tgdh, str, bd or tgdh-bal. Returns false and leaves
/// `out` untouched for an unknown name.
bool parse_protocols(const std::string& name, std::vector<ProtocolKind>& out);

/// Matches `--flag value` and `--flag=value` at rest[i]; advances `i` past
/// the value. Throws std::runtime_error when the value is missing.
bool take_flag(const std::vector<std::string>& rest, std::size_t& i,
               const std::string& flag, std::string& value);

/// Lower-case protocol name, as parse_protocols accepts it (repro lines).
std::string lower_name(ProtocolKind kind);

/// Parses a count given on the command line: 1 to 9 decimal digits and
/// nothing else (no sign, no trailing characters), with a value of at least
/// `min`. Returns false and leaves `out` untouched otherwise.
bool parse_count(const std::string& text, std::size_t min, std::size_t& out);

/// Parses a rate or a time in milliseconds given on the command line: a
/// finite decimal number and nothing else (no trailing characters). Returns
/// false and leaves `out` untouched otherwise.
bool parse_real(const std::string& text, double& out);

/// Parses a --scale value: comma-separated worker-thread counts, each a
/// parse_count count >= 1. Throws std::runtime_error for an empty list or a
/// bad entry.
std::vector<int> parse_scale(const std::string& list);

/// Outcome of a thread-scale sweep (sweep_thread_scale).
struct ThreadSweep {
  std::string mode;  // label printed in parentheses; empty for none
  bool determinism_ok = true;  // every run's JSON equalled the first run's
  std::vector<std::pair<int, double>> wall_ms;  // (threads, host ms)

  /// Prints the host-time scaling table: wall ms, speedup and efficiency
  /// against the first run. A row with more threads than host cpus
  /// time-slices its workers, so it is marked oversubscribed rather than
  /// read as scaling (cpus is 0 where the host count is unknown). Prints
  /// nothing when no wall time was recorded.
  void print_wall_table(std::ostream& out) const;
};

/// Runs `run(threads, first)` once per entry of `scale`, in order; `first`
/// is true for the first run only. `run` returns the run's canonical JSON,
/// which must be the same bytes at every thread count. Every later run
/// prints either `determinism ok` or a `DETERMINISM VIOLATION` line naming
/// the first differing byte, followed by a repro line `<repro> --scale=
/// <first>,<threads>`. With `wallclock`, each run's host ms is recorded (no
/// host clock is read otherwise).
ThreadSweep sweep_thread_scale(
    const std::vector<int>& scale, const std::string& mode,
    const std::string& repro, bool wallclock,
    const std::function<std::string(int threads, bool first)>& run,
    std::ostream& out);

/// Serializes a sweep for the BENCH_*.json "sweeps" entries: sizes plus, per
/// series, the mean curve and per-size median / p95 over seeds (the median is
/// what the CI perf gate compares against its committed baseline).
obs::Json sweep_to_json(const SweepResult& result);

}  // namespace sgk
