// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Fixed-size worker pool. Two kinds of callers own one:
//
//  * the run drivers, which run independent simulation runs side by side,
//    each over a private Database (env, clock, RNG, disk, pool, SSM);
//  * each run's EngineInstance, whose workers run scans' tuple kernels
//    ahead of the event loop inside the run (exec/kernel_runahead.h).
//
// Every simulation decision stays on a run's event-loop thread (all time
// from sim::VirtualClock, all randomness from scanshare::Rng); run-ahead
// workers only compute pure per-page kernel outputs over immutable page
// images. The domain lint confines every thread primitive to the files
// that start or synchronise threads (scanshare-threads), so the
// determinism guarantee cannot erode one `std::mutex` at a time.
//
// Determinism contract: callers submit a fixed set of tasks, each task
// writes only into its own pre-sized result slot, and results are merged
// in index order. Scheduling order may vary between executions; outputs
// may not — parallel_determinism_test holds the whole driver stack to
// bit-identical results at jobs=1 vs jobs=8, and kernel_runahead_test
// holds runs to bit-identical results with 0, 1 and 3 kernel workers.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"

namespace scanshare {

/// A fixed pool of worker threads draining a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least one).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result. Tasks start in
  /// submission order (FIFO); with one worker they also *complete* in
  /// submission order. Exceptions thrown by `fn` are captured into the
  /// future and rethrown at get().
  template <typename F>
  [[nodiscard]] auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      MutexLock lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    ready_.notify_one();
    return result;
  }

  /// Runs fn(0) .. fn(n-1) across the pool and blocks until all complete.
  /// If any invocation throws, the exception of the *lowest index* that
  /// threw is rethrown (a deterministic choice independent of scheduling).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// permits 0 for "unknown").
  static size_t HardwareConcurrency();

  /// On a pool's worker, that pool's size; 0 on any other thread.
  static size_t CurrentPoolSize();

 private:
  /// Runs tasks until the pool stops, on a worker of a pool of `size`.
  void WorkerLoop(size_t size);

  /// Queue lock, a leaf released before a task runs (common/lock_order.h
  /// kDriver): contended by the submitting thread (Submit, the destructor)
  /// and this pool's workers (WorkerLoop).
  Mutex mu_ SCANSHARE_ACQUIRED_AFTER(lock_order::kDriver);
  /// _any variant: waits directly on the annotated Mutex (std::
  /// condition_variable would need the raw std::mutex back).
  std::condition_variable_any ready_;
  std::deque<std::function<void()>> queue_ SCANSHARE_GUARDED_BY(mu_);
  bool stop_ SCANSHARE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace scanshare
