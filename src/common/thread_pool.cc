#include "common/thread_pool.h"

#include <algorithm>

namespace scanshare {

namespace {

/// The size of the pool the calling thread works for (0: none).
thread_local size_t current_pool_size = 0;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t count = std::max<size_t>(1, num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, count] { WorkerLoop(count); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(size_t size) {
  current_pool_size = size;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Explicit wait loop (not the predicate overload): the predicate
      // would be a separate lambda body, which the thread-safety analysis
      // cannot see holds mu_. wait() releases mu_ while blocked and
      // reacquires before returning, so the guarded reads stay covered.
      while (!stop_ && queue_.empty()) ready_.wait(mu_);
      // Drain the queue even when stopping: a submitted task holds a
      // future someone may be blocked on.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::future<void>> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pending.push_back(Submit([&fn, i] { fn(i); }));
  }
  // Collect in index order so the first failure rethrown is deterministic
  // regardless of which worker ran what when.
  std::exception_ptr first_error;
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

size_t ThreadPool::HardwareConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ThreadPool::CurrentPoolSize() { return current_pool_size; }

}  // namespace scanshare
