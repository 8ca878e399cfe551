#include "server/shard_executor.h"

#include "util/check.h"

namespace sgk::server {

ShardExecutor::ShardExecutor(int threads) : threads_(threads) {
  SGK_CHECK(threads >= 1);
  if (threads_ == 1) return;  // inline mode, no pool
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int worker = 0; worker < threads_; ++worker) {
    workers_.emplace_back([this, worker] { worker_loop(worker); });
  }
}

ShardExecutor::~ShardExecutor() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ShardExecutor::run_epoch(const std::function<void(int)>& fn) {
  if (threads_ == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    SGK_CHECK(remaining_ == 0);  // not reentrant
    task_ = &fn;
    remaining_ = threads_;
    ++generation_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(pool_mu_);
  done_cv_.wait(lock, [this]() SGK_REQUIRES(pool_mu_) {
    return remaining_ == 0;
  });
  task_ = nullptr;
}

void ShardExecutor::worker_loop(int worker) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(int)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      work_cv_.wait(lock, [this, seen]() SGK_REQUIRES(pool_mu_) {
        return stop_ || generation_ != seen;
      });
      if (stop_) return;
      seen = generation_;
      task = task_;
    }
    (*task)(worker);
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      last = (--remaining_ == 0);
    }
    if (last) done_cv_.notify_one();
  }
}

}  // namespace sgk::server
