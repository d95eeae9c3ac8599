// Minimal deterministic parallelism substrate (no external dependencies).
//
// parallel_for(n, jobs, fn) runs fn(i) for every index i in [0, n) across
// up to `jobs` threads (the calling thread participates, so jobs == 1 never
// spawns). Work is handed out through a shared atomic counter, which keeps
// the scheduling dynamic while the *results* stay deterministic under the
// repo-wide reduction rule (DESIGN.md):
//
//   every parallel stage writes iteration i's result into slot i of a
//   pre-sized buffer and performs selection/reduction sequentially after
//   the join, under a total order that never depends on thread count or
//   scheduling — so `--jobs=1` and `--jobs=N` are bit-identical.
//
// Exceptions thrown by iterations are captured and the one with the lowest
// index is rethrown after all workers drain (again independent of
// scheduling); the remaining iterations still run, which is fine because
// they are independent by contract.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tqec {

/// Worker count for a `jobs` request: a positive request is taken as-is;
/// zero or negative means "auto" (the hardware concurrency, at least 1).
inline int resolve_jobs(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Run fn(i) for every i in [0, n) on up to `jobs` threads. Blocks until
/// every iteration finished; rethrows the lowest-index exception, if any.
inline void parallel_for(std::size_t n, int jobs,
                         const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers =
      std::min(n, static_cast<std::size_t>(std::max(1, jobs)));
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = n;
  auto work = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Persistent worker pool with a bounded queue — the admission-control
/// substrate of tqec_serve. Unlike parallel_for (a one-shot fork/join over
/// a fixed index range), the pool accepts independent jobs over its whole
/// lifetime and rejects new ones when the queue is full, so an overloaded
/// server degrades to fast structured "overloaded" responses instead of
/// unbounded memory growth. Jobs must not throw (wrap and report); an
/// escaped exception terminates the process by design.
class WorkerPool {
 public:
  /// `threads` >= 1 dedicated workers; `queue_limit` bounds the number of
  /// jobs admitted but not yet started (0 = unbounded).
  WorkerPool(int threads, std::size_t queue_limit)
      : queue_limit_(queue_limit) {
    const int n = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
      workers_.emplace_back([this] { run_worker(); });
  }

  ~WorkerPool() { shutdown(); }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Admit a job. Returns false — without blocking — when the queue is at
  /// its limit or the pool is shutting down; the caller owns the rejection
  /// response.
  bool submit(std::function<void()> job) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return false;
      if (queue_limit_ > 0 && queue_.size() >= queue_limit_) return false;
      queue_.push_back(std::move(job));
    }
    wake_.notify_one();
    return true;
  }

  /// Jobs admitted but not yet handed to a worker.
  std::size_t pending() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// Dedicated worker threads (0 after shutdown).
  std::size_t worker_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return workers_.size();
  }

  /// Stop accepting jobs, drain the queue, run everything already
  /// admitted, and join the workers. Idempotent; called by the destructor.
  void shutdown() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

 private:
  void run_worker() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::size_t queue_limit_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tqec
