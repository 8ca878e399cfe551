// The benchmark's workloads, driven through the library's public API
// (Experiment for one group, GroupServer for many). A workload runs in
// repetitions ("reps"): rep r draws every input from (seed, r), so the same
// seed gives the same inputs and rep 0 always runs in full, which is what
// the virtual-output digest covers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "speed.h"
#include "tracer.h"

namespace perfbench {

/// What one rep did and how long its timed phase took on the host.
struct RepOutcome {
  std::uint64_t attempted = 0;  // measured events, or groups hosted
  std::uint64_t failed = 0;     // events not keyed alike, or groups not converged
  std::uint64_t events = 0;     // membership events completed
  /// Timed phase: the measure_* calls (single group) or GroupServer::run
  /// (server), rescaled by the speed probe (speed.h), and as measured.
  double wall_s = 0;
  double raw_wall_s = 0;
  /// Rescaled ms per timed call: each Experiment::measure_* call on the
  /// single-group workloads, each ShardExecutor::run_epoch step on the
  /// server workloads.
  std::vector<double> step_ms;
  /// FNV-1a over the rep's virtual outputs: every event's elapsed and
  /// membership ms, group size and OpCounters, or ServerResult::to_json().
  std::uint64_t digest = 0;
  std::string canonical;        // ServerResult::to_json() (server workloads)
  // Counts the program reports itself (per-layer context, not timings).
  double rekeys = 0;            // distinct new keys installed
  double batch_coalesced = 0;
  double batch_shed = 0;
  double recoveries = 0;
  double fault_verdicts = 0;    // wire copies the injector delayed or duplicated
};

/// Sums of RepOutcome over the reps of a run.
struct RunTotals {
  std::uint64_t attempted = 0, failed = 0, events = 0;
  double rekeys = 0, coalesced = 0, shed = 0, recoveries = 0, verdicts = 0;
  void add(const RepOutcome& o);
};

/// Every per-layer metric of a traced run: the tracer's layer metrics over
/// `traced`, set-up counts from `setup`, and the program's own counts from
/// `counts`, all per measured event where they are counts.
std::map<std::string, double> per_layer_metrics(const Buffer& traced,
                                                const Buffer& setup,
                                                const TraceWindow& window,
                                                const RunTotals& counts);

/// Size knobs, so the tests can run each workload at unit size.
struct Scale {
  bool smoke = false;
  int threads = 2;  // shard threads of the server workloads
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Library statics plus construction of rep 0's first object (and, for a
  /// single group, its unmeasured growth to the starting size).
  virtual void setup() = 0;
  /// Runs rep `rep`. With `collect_counts`, also gathers the program's own
  /// counters that need an ambient metrics registry (traced runs only).
  virtual RepOutcome run_rep(int rep, bool collect_counts) = 0;
  virtual int threads() const { return 1; }
  /// The speed probe matching the layer that dominates this workload.
  virtual Probe probe() const { return Probe::kMontgomery; }
};

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale = {});

/// Host and rescaled ms of one ShardExecutor::run_epoch call.
struct EpochWall {
  double raw_ms = 0;
  double scaled_ms = 0;
};
/// Epoch walls recorded by the run_epoch wrapper (main thread only).
void record_epoch_wall(EpochWall wall);
std::vector<EpochWall> take_epoch_walls();

/// 64-bit FNV-1a, continued from `h`.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
