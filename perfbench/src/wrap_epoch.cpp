// Link-time wrapper around ShardExecutor::run_epoch, linked into both
// benchmark binaries (GNU ld --wrap; CMakeLists.txt collects the symbol from
// the PB_SYM_ line below). It times every barrier-to-barrier epoch step from
// outside the library and rescales each shard's slice by the speed factor of
// the thread that ran it (speed.h); when a probe is due, an untimed epoch
// that only probes runs first on the same threads. When tracing is on it also
// opens the epoch span on the calling thread and a shard span around each
// shard's slice on the thread that runs it, so worker-thread work lands in
// per-thread buffers.
#include <algorithm>
#include <functional>
#include <vector>

#include "server/shard_executor.h"
#include "speed.h"
#include "tracer.h"
#include "workloads.h"

#define PB_SYM_RUN_EPOCH "_ZN3sgk6server13ShardExecutor9run_epochERKSt8functionIFviEE"

namespace perfbench::wrap {

void real_run_epoch(sgk::server::ShardExecutor*, const std::function<void(int)>&)
    __asm__("__real_" PB_SYM_RUN_EPOCH);
void wrap_run_epoch(sgk::server::ShardExecutor*, const std::function<void(int)>&)
    __asm__("__wrap_" PB_SYM_RUN_EPOCH);

void wrap_run_epoch(sgk::server::ShardExecutor* self,
                    const std::function<void(int)>& fn) {
  if (probe_due()) {
    probe_now();  // this thread runs the rest of GroupServer::run
    const std::uint64_t p0 = now_ns();
    real_run_epoch(self, [](int) { probe_now(); });
    count_probe(now_ns() - p0);
  }
  // Each shard's slice is rescaled by the speed of the thread that ran it;
  // the slowest rescaled slice plus the hand-off around it is the epoch.
  struct Slice {
    double factor = 1;
    std::uint64_t ns = 0;
  };
  std::vector<Slice> slices(static_cast<std::size_t>(self->threads()));
  const bool tracing = enabled();
  const std::function<void(int)> step = [&](int shard) {
    Slice& slice = slices[static_cast<std::size_t>(shard)];
    slice.factor = speed_factor();
    const std::uint64_t s0 = now_ns();
    if (tracing) {
      bind_shard(shard);
      Span span(Site::kShard);
      fn(shard);
    } else {
      fn(shard);
    }
    slice.ns = now_ns() - s0;
  };
  const std::uint64_t t0 = now_ns();
  if (tracing) {
    Span span(Site::kEpoch);
    real_run_epoch(self, step);
  } else {
    real_run_epoch(self, step);
  }
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  double slowest_ms = 0, slowest_scaled_ms = 0;
  for (const Slice& slice : slices) {
    const double slice_ms = static_cast<double>(slice.ns) / 1e6;
    slowest_ms = std::max(slowest_ms, slice_ms);
    slowest_scaled_ms = std::max(slowest_scaled_ms, slice_ms * slice.factor);
  }
  record_epoch_wall(
      {ms, slowest_scaled_ms + (ms - slowest_ms) * speed_factor()});
}

}  // namespace perfbench::wrap
