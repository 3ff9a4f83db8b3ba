#include "exec/kernel_runahead.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "storage/page.h"

#ifdef __linux__
#include <sched.h>
#endif

namespace scanshare::exec {

namespace {

/// Kernel scratch, one per thread that runs kernels: the page's tuple
/// pointers and the per-slot selection flags.
struct KernelScratch {
  std::vector<const uint8_t*> tuples;
  std::vector<uint8_t> sel;
};

thread_local KernelScratch scratch;

}  // namespace

ScanWalk ScanWalk::Range(sim::PageId first, sim::PageId end,
                         sim::PageId start) {
  ScanWalk walk;
  walk.Add(start, end);
  walk.Add(first, start);
  return walk;
}

ScanWalk ScanWalk::Blocks(const std::vector<storage::BlockId>& sequence,
                          size_t start, sim::PageId base, uint64_t block_pages,
                          sim::PageId limit) {
  ScanWalk walk;
  walk.runs_.reserve(sequence.size());
  for (size_t i = 0; i < sequence.size(); ++i) {
    const sim::PageId first =
        base + static_cast<sim::PageId>(
                   sequence[(start + i) % sequence.size()]) *
                   block_pages;
    walk.Add(first, std::min(first + block_pages, limit));
  }
  return walk;
}

void ScanWalk::Add(sim::PageId first, sim::PageId end) {
  if (first >= end) return;
  runs_.push_back(Run{first, end});
  pages_ += end - first;
}

ScanKernel::ScanKernel(CompiledPredicate predicate, Aggregator* aggregator,
                       const storage::DiskManager* store, ScanWalk walk,
                       uint64_t batch_pages)
    : predicate_(std::move(predicate)),
      aggregator_(aggregator),
      store_(store),
      walk_(std::move(walk)),
      batch_pages_(std::max<uint64_t>(1, batch_pages)),
      results_(walk_.pages()),
      compute_pos_(walk_.Begin()),
      next_(walk_.Begin()) {}

bool ScanKernel::ComputeBatch() {
  const uint32_t page_size = store_->page_size();
  for (uint64_t n = 0; n < batch_pages_ && !walk_.AtEnd(compute_pos_); ++n) {
    const uint8_t* image = store_->PageImage(compute_pos_.page);
    if (image == nullptr) return false;
    const storage::PageView view(image, page_size);
    if (!view.IsValid()) return false;
    // Materialize the page's tuple pointers once, run the predicate as
    // dense compare-and-mask passes into a selection array, then fold the
    // selected tuples in slot order.
    const uint16_t count = view.tuple_count();
    scratch.tuples.resize(count);
    for (uint16_t slot = 0; slot < count; ++slot) {
      scratch.tuples[slot] = view.TupleDataUnchecked(slot);
    }
    scratch.sel.resize(count);
    predicate_.MatchBatch(scratch.tuples.data(), count, scratch.sel.data());
    const size_t matched = aggregator_->ConsumeBatch(
        scratch.tuples.data(), scratch.sel.data(), count);
    results_[compute_index_] =
        PageResult{count, static_cast<uint16_t>(matched)};
    ++compute_index_;
    walk_.Next(&compute_pos_);
  }
  return true;
}

StatusOr<PageResult> ScanKernel::Take(sim::PageId page) {
  if (walk_.AtEnd(next_)) {
    return Status::Internal("scan: page " + std::to_string(page) +
                            " fetched past the end of the walk");
  }
  if (next_.page != page) {
    return Status::Internal("scan: page " + std::to_string(page) +
                            " fetched out of walk order (next is " +
                            std::to_string(next_.page) + ")");
  }
  if (taken_ == known_) SCANSHARE_RETURN_IF_ERROR(Await(page));
  const PageResult result = results_[taken_];
  ++taken_;
  walk_.Next(&next_);
  return result;
}

Status ScanKernel::Await(sim::PageId page) {
  for (;;) {
    {
      MutexLock lock(mu_);
      // A worker holding the turn publishes after every batch and gives
      // the turn back only once the walk has stopped.
      while (computed_ <= taken_ && !Stopped() && turn_held_) cv_.wait(mu_);
      known_ = computed_;
      if (known_ > taken_) return Status::OK();
      if (error_ != nullptr) std::rethrow_exception(error_);
      if (invalid_at_ != kNoPage) {
        return Status::Corruption("scan: page " + std::to_string(page) +
                                  " failed validation");
      }
      turn_held_ = true;
    }
    (void)RunBatch(/*release=*/true);
    cv_.notify_all();  // A worker may be waiting for the turn.
  }
}

bool ScanKernel::RunBatch(bool release) {
  bool valid = false;
  std::exception_ptr error;
  try {
    valid = ComputeBatch();
  } catch (...) {
    // Taken to the event loop, which rethrows it where it needs the page;
    // the turn must not stay held.
    error = std::current_exception();
  }
  MutexLock lock(mu_);
  if (error != nullptr) {
    error_ = error;
  } else {
    computed_ = compute_index_;
    if (!valid) invalid_at_ = compute_index_;
  }
  const bool stop = cancelled_ || Stopped();
  if (release || stop) turn_held_ = false;
  return stop;
}

void ScanKernel::RunAhead() {
  {
    MutexLock lock(mu_);
    while (turn_held_ && !cancelled_) cv_.wait(mu_);
    if (cancelled_ || Stopped()) return;
    turn_held_ = true;
  }
  for (bool stop = false; !stop;) {
    stop = RunBatch(/*release=*/false);
    cv_.notify_all();
  }
}

void ScanKernel::Cancel() {
  {
    MutexLock lock(mu_);
    cancelled_ = true;
    while (turn_held_) cv_.wait(mu_);
  }
  cv_.notify_all();
}

void SubmitRunAhead(ThreadPool* workers, std::shared_ptr<ScanKernel> kernel) {
  if (workers == nullptr) return;
  // The task's reference keeps the kernel's lock alive for a task that
  // starts after its scan is gone; the cancel keeps it off the aggregator.
  (void)workers->Submit([kernel = std::move(kernel)] { kernel->RunAhead(); });
}

size_t RunAheadWorkerCount() {
  size_t cpus = 0;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&set));
  }
#endif
  if (cpus == 0) cpus = ThreadPool::HardwareConcurrency();
  const size_t runs = std::max<size_t>(1, ThreadPool::CurrentPoolSize());
  return std::max<size_t>(1, cpus / runs) - 1;
}

}  // namespace scanshare::exec
