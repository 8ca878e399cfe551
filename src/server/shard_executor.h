// Fixed pool of worker threads that executes one "epoch" of work at a time,
// with a full barrier between epochs.
//
// The multi-group server's epoch closure hands every group to exactly one
// worker per epoch (workers claim group ids from a shared atomic cursor), so
// within an epoch no two workers ever touch the same group. The executor's
// own shared state is the epoch hand-off — a generation counter and a
// remaining-workers count, both behind pool_mu_ with real SGK_GUARDED_BY
// guards (gka_lint GKA5xx and Clang -Wthread-safety both verify them).
//
// Determinism: the barrier gives run_epoch() release/acquire semantics — all
// worker writes in epoch N happen-before the caller's reads after
// run_epoch(N) returns and before every worker's reads in epoch N+1. Since
// each group's events are replayed by a seeded single-threaded Simulator and
// no epoch hands one group to two workers, the bytes a run produces are
// independent of thread count, scheduling, and which worker advanced a group
// in which epoch.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace sgk::server {

class ShardExecutor {
 public:
  /// `threads` >= 1. With one thread no workers are spawned and epochs run
  /// inline on the calling thread (the determinism reference path).
  explicit ShardExecutor(int threads);
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  int threads() const { return threads_; }

  /// Runs `fn(worker)` once for every worker index in [0, threads()) and
  /// returns after all of them finished (the epoch barrier). `fn` must
  /// confine itself to state no other worker touches in this epoch (plus
  /// properly guarded shared structures). Not reentrant.
  void run_epoch(const std::function<void(int)>& fn);

 private:
  void worker_loop(int worker);

  const int threads_;
  std::vector<std::thread> workers_;

  std::mutex pool_mu_;
  std::condition_variable work_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // caller waits for remaining_ == 0
  const std::function<void(int)>* task_ SGK_GUARDED_BY(pool_mu_) = nullptr;
  std::uint64_t generation_ SGK_GUARDED_BY(pool_mu_) = 0;
  int remaining_ SGK_GUARDED_BY(pool_mu_) = 0;
  bool stop_ SGK_GUARDED_BY(pool_mu_) = false;
};

}  // namespace sgk::server
