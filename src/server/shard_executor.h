// Fixed pool of worker threads that executes one "epoch" of work at a time,
// with a full barrier between epochs.
//
// The multi-group server's epoch closure hands every group to exactly one
// worker per epoch (workers claim group ids from a shared atomic cursor), so
// within an epoch no two workers ever touch the same group. The executor's
// own shared state is the epoch hand-off: one std::barrier for the workers
// plus the calling thread, which every epoch crosses twice — once to start
// the workers on the task, once to collect them when they are done.
//
// Determinism: the barrier gives run_epoch() release/acquire semantics — all
// worker writes in epoch N happen-before the caller's reads after
// run_epoch(N) returns and before every worker's reads in epoch N+1. Since
// each group's events are replayed by a seeded single-threaded Simulator and
// no epoch hands one group to two workers, the bytes a run produces are
// independent of thread count, scheduling, and which worker advanced a group
// in which epoch.
#pragma once

#include <barrier>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace sgk::server {

class ShardExecutor {
  // Owned by one GroupServer::run. The task pointer and the stop flag are
  // written only by the owning thread, before it arrives at the barrier that
  // starts an epoch (or releases the workers to exit); the workers read them
  // only after that barrier phase completes, so the barrier orders both.
  SGK_CONFINED_TO_RUN;

 public:
  /// `threads` >= 1. With one thread no workers are spawned and epochs run
  /// inline on the calling thread (the determinism reference path).
  explicit ShardExecutor(int threads);
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  int threads() const { return threads_; }

  /// Runs `fn(worker)` once for every worker index in [0, threads()) and
  /// returns after all of them finished (the epoch barrier). Worker index w
  /// runs on the same thread in every epoch. `fn` must confine itself to
  /// state no other worker touches in this epoch. Not reentrant. If `fn`
  /// throws, every worker still finishes the epoch, and run_epoch rethrows
  /// the exception of the lowest worker index that threw; the executor
  /// stays usable.
  void run_epoch(const std::function<void(int)>& fn);

 private:
  void worker_loop(int worker);

  const int threads_;
  std::barrier<> epoch_;  // threads_ workers + the calling thread
  const std::function<void(int)>* task_ = nullptr;
  bool stop_ = false;
  // What each worker's task threw this epoch; written by that worker before
  // the finish barrier, read and cleared by the calling thread after it.
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace sgk::server
