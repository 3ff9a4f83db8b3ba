// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Kernel run-ahead (DESIGN.md §10.4): a scan's tuple kernel runs ahead of
// the event loop on the host's spare cores. Page images are immutable once
// loaded (storage/disk_manager.h) and a scan's page walk is fixed once the
// scan is placed, so the kernel's outputs — each page's rows and matches,
// and the aggregate folded in walk order — do not depend on the event
// schedule. Every simulation decision stays on the event-loop thread:
// ChunkProcessor still fetches, pins and releases each page through the
// pool, and takes only the page's (rows, matched) from the kernel to charge
// virtual CPU.
//
// Turn-taking. At most one thread holds a scan's turn, and only the turn
// holder runs the kernel and folds into the aggregator. Until a worker
// takes the scan, the event loop computes the next batch (one extent)
// itself whenever it needs a page it does not have; with no workers that
// is all that happens. Once a worker takes the scan it runs the walk to
// its end, publishing progress after every batch, and the event loop only
// waits on the scan's condition variable. A worker waits for nothing but
// the turn, which the event loop releases after one batch: nothing spins
// and nothing deadlocks.
//
// Teardown. Cancel stops the walk after the batch in progress and returns
// once no worker holds the turn; ChunkProcessor's destructor calls it, so
// the borrowed aggregator is never touched after its scan is gone. A task
// that starts after the cancel finds it and returns at once.
//
// Locking (common/lock_order.h): each kernel's mutex is rank kScanKernel,
// a leaf held by no one while any other lock is taken.
//
// This file is on the domain lint's thread allowlist (scanshare-threads).

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/status.h"
#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "sim/disk.h"
#include "storage/block_index.h"
#include "storage/disk_manager.h"

namespace scanshare {
class ThreadPool;
}  // namespace scanshare

namespace scanshare::exec {

/// The pages a scan reads, in order, as runs of contiguous pages (one per
/// segment or block, never one per page); a Position steps through it.
class ScanWalk {
 public:
  /// A place in the walk: a run and a page of it.
  struct Position {
    size_t run = 0;
    sim::PageId page = 0;
  };

  /// The empty walk.
  ScanWalk() = default;

  /// Pages [start, end), then [first, start): a table scan placed at
  /// `start` within its range [first, end). `start` == `first` walks the
  /// range front to back.
  static ScanWalk Range(sim::PageId first, sim::PageId end, sim::PageId start);

  /// The blocks of `sequence` from index `start` to its end, then the
  /// blocks before `start`: a block-index scan. Block b covers pages
  /// [base + b * block_pages, base + (b + 1) * block_pages), clipped to
  /// `limit`.
  static ScanWalk Blocks(const std::vector<storage::BlockId>& sequence,
                         size_t start, sim::PageId base, uint64_t block_pages,
                         sim::PageId limit);

  /// Pages in the walk.
  uint64_t pages() const { return pages_; }

  /// The walk's first page (AtEnd for the empty walk).
  Position Begin() const {
    return Position{0, runs_.empty() ? 0 : runs_[0].first};
  }
  /// True once `pos` has passed the last page.
  bool AtEnd(const Position& pos) const { return pos.run >= runs_.size(); }
  /// Steps `pos` to the next page.
  void Next(Position* pos) const {
    if (++pos->page < runs_[pos->run].end) return;
    if (++pos->run < runs_.size()) pos->page = runs_[pos->run].first;
  }

 private:
  /// Appends [first, end) unless it is empty.
  void Add(sim::PageId first, sim::PageId end);

  struct Run {
    sim::PageId first = 0;
    sim::PageId end = 0;
  };
  std::vector<Run> runs_;  ///< Non-empty, in walk order.
  uint64_t pages_ = 0;
};

/// What the kernel found on one page: its rows and the rows that passed
/// the predicate (both at most a page's tuple count).
struct PageResult {
  uint16_t rows = 0;
  uint16_t matched = 0;
};

/// One scan's kernel: its walk, a copy of the compiled predicate, the
/// query's aggregator and one result per walk page. Shared by the event
/// loop and at most one worker; see the file comment for the protocol.
class ScanKernel {
 public:
  /// `aggregator` is borrowed and must stay alive until Cancel returns (or
  /// the walk's last page was taken); `store` must outlive the kernel.
  /// Batches are `batch_pages` pages (at least one).
  ScanKernel(CompiledPredicate predicate, Aggregator* aggregator,
             const storage::DiskManager* store, ScanWalk walk,
             uint64_t batch_pages);

  ScanKernel(const ScanKernel&) = delete;
  ScanKernel& operator=(const ScanKernel&) = delete;

  /// Event loop: the result of the walk's next page, which must be `page`
  /// (Internal otherwise, and past the walk's end). Computes the next
  /// batch inline when no worker holds the scan, waits for the worker
  /// otherwise. Returns Corruption if the page's image fails validation.
  /// Once the last page's result is taken, the aggregator holds the whole
  /// walk and no thread touches it again.
  [[nodiscard]] StatusOr<PageResult> Take(sim::PageId page)
      SCANSHARE_EXCLUDES(mu_);

  /// Worker task: waits for the turn, then runs the walk to its end (or
  /// to a cancel, an invalid page or an exception, which Take rethrows on
  /// the event loop) in batches.
  void RunAhead() SCANSHARE_EXCLUDES(mu_);

  /// Stops the walk after the batch in progress and returns once no worker
  /// holds the turn. Event loop only.
  void Cancel() SCANSHARE_EXCLUDES(mu_);

 private:
  static constexpr uint64_t kNoPage = ~uint64_t{0};

  /// Turn holder: runs the kernel over the next batch from compute_pos_.
  /// Returns false if it stopped at a page whose image is invalid.
  bool ComputeBatch();

  /// Event loop: makes the result at taken_ available, computing a batch
  /// inline if no worker holds the turn.
  [[nodiscard]] Status Await(sim::PageId page) SCANSHARE_EXCLUDES(mu_);

  /// Turn holder: runs one batch, then publishes it (or what it threw)
  /// under mu_ and gives the turn back if `release` or the walk stopped.
  /// Returns whether the walk stopped or was cancelled.
  bool RunBatch(bool release) SCANSHARE_EXCLUDES(mu_);

  /// True once no batch is left to run: the walk is done, or stopped at
  /// an invalid page or an exception.
  bool Stopped() const SCANSHARE_REQUIRES(mu_) {
    return computed_ == walk_.pages() || invalid_at_ != kNoPage ||
           error_ != nullptr;
  }

  const CompiledPredicate predicate_;
  Aggregator* const aggregator_;
  const storage::DiskManager* const store_;
  const ScanWalk walk_;
  const uint64_t batch_pages_;
  // One slot per walk page. Slot i is written once, by the turn holder,
  // before computed_ passes i; the event loop reads it only after.
  std::vector<PageResult> results_;

  // Turn holder's state, handed over with the turn (under mu_).
  ScanWalk::Position compute_pos_;
  uint64_t compute_index_ = 0;

  // Event loop's state: the next page to take, its walk index, and how
  // many results it saw published when it last held mu_.
  ScanWalk::Position next_;
  uint64_t taken_ = 0;
  uint64_t known_ = 0;

  /// The scan's lock, a leaf (common/lock_order.h kScanKernel): contended
  /// by the event loop (Take, Cancel) and the worker running this walk
  /// (RunAhead).
  Mutex mu_ SCANSHARE_ACQUIRED_AFTER(lock_order::kScanKernel);
  /// _any variant: waits on the annotated Mutex, as ThreadPool does.
  std::condition_variable_any cv_;
  uint64_t computed_ SCANSHARE_GUARDED_BY(mu_) = 0;  ///< Results published.
  /// Walk index of the first page whose image failed validation.
  uint64_t invalid_at_ SCANSHARE_GUARDED_BY(mu_) = kNoPage;
  /// What a worker's batch threw; the event loop rethrows it.
  std::exception_ptr error_ SCANSHARE_GUARDED_BY(mu_);
  bool turn_held_ SCANSHARE_GUARDED_BY(mu_) = false;
  bool cancelled_ SCANSHARE_GUARDED_BY(mu_) = false;
};

/// Hands `kernel`'s walk to `workers` (scans are submitted in open order;
/// a null pool leaves every batch to the event loop).
void SubmitRunAhead(ThreadPool* workers, std::shared_ptr<ScanKernel> kernel);

/// The workers a run gets for kernel run-ahead: one fewer than its share of
/// the CPUs this thread may run on (sched_getaffinity, else the hardware
/// concurrency). A run on a worker of a ThreadPool of n (a run driver's)
/// shares them with the pool's other n - 1 runs, so it gets
/// max(1, cpus / n) - 1; any other run gets cpus - 1. So neither a pinned
/// process nor a parallel run driver oversubscribes its cores. Zero on one
/// CPU.
size_t RunAheadWorkerCount();

}  // namespace scanshare::exec
