#include "server/shard_executor.h"

#include <algorithm>

#include "util/check.h"

namespace sgk::server {

ShardExecutor::ShardExecutor(int threads)
    : threads_(threads), epoch_(std::max(threads, 0) + 1) {
  SGK_CHECK(threads >= 1);
  if (threads_ == 1) return;  // inline mode, no pool
  errors_.resize(static_cast<std::size_t>(threads_));
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int worker = 0; worker < threads_; ++worker) {
    workers_.emplace_back([this, worker] { worker_loop(worker); });
  }
}

ShardExecutor::~ShardExecutor() {
  if (workers_.empty()) return;
  stop_ = true;
  epoch_.arrive_and_wait();  // releases the workers, which see stop_
  for (std::thread& w : workers_) w.join();
}

void ShardExecutor::run_epoch(const std::function<void(int)>& fn) {
  if (threads_ == 1) {
    fn(0);
    return;
  }
  task_ = &fn;
  epoch_.arrive_and_wait();  // start: the workers see task_
  epoch_.arrive_and_wait();  // finish: their writes are visible here
  std::exception_ptr first;
  for (std::exception_ptr& error : errors_) {
    if (!first) first = error;
    error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void ShardExecutor::worker_loop(int worker) {
  while (true) {
    epoch_.arrive_and_wait();
    if (stop_) return;
    try {
      (*task_)(worker);
    } catch (...) {
      // Carried to the calling thread: an exception escaping a worker
      // thread would end the process.
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    epoch_.arrive_and_wait();
  }
}

}  // namespace sgk::server
