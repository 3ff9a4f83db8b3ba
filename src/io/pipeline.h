// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The narrow interface the buffer pool sees of the push I/O pipeline
// (DESIGN.md §15). Deliberately SSM-free: the concrete scheduler
// (io::Prefetcher) watches ScanSharingManager frontiers, but the pool only
// needs "give me this clipped extent's bytes and its virtual-time charge"
// plus a residency oracle for the pump — keeping this header free of SSM
// types is what keeps the buffer -> io -> ssm -> buffer include chain
// acyclic at the library level.

#pragma once

#include <cstdint>

#include "common/counters.h"
#include "common/status.h"
#include "io/io_backend.h"

namespace scanshare::io {

/// Residency oracle the pipeline's pump consults before issuing a window
/// extent, so already-cached extents cost no disk time. Implemented by
/// BufferPool.
class ResidencyProbe {
 public:
  virtual ~ResidencyProbe() = default;
  /// True if `page` is currently cached.
  virtual bool IsPageCached(sim::PageId page) const = 0;
};

/// Pipeline tuning (exec::RunConfig::io).
struct PrefetchOptions {
  /// Extents of lookahead per group ("K"). The window starts at the extent
  /// containing the leader's position and wraps with the scan circle.
  uint64_t depth = 4;
  /// Ready-extent budget per group window; issuing stops (kIoQueueFull)
  /// when a window already holds this many un-consumed extents. 0 means
  /// "same as depth" (the default never reports queue-full; the throttled-
  /// trailer overflow test sets it lower).
  uint64_t queue_bound = 0;
};

/// Pipeline counters (exec::RunResult::io).
struct IoPipelineStats {
  uint64_t submitted = 0;      ///< Extent reads issued by the pump.
  uint64_t prefetch_hits = 0;  ///< Demand fetches served from the ready set.
  uint64_t sync_reads = 0;     ///< Demand fetches read inline (not ready).
  uint64_t queue_full = 0;     ///< Window extents unissued for lack of budget.
  uint64_t dropped_stale = 0;  ///< Ready extents evicted as stale.
  /// Window extents skipped because a demand fetch consumed them recently:
  /// the frontier a window is aimed with is reported at chunk *start*, so
  /// until the leader's next update the window still contains the extent
  /// the group just read — re-issuing it (once the pool evicts its pages)
  /// would be pure churn. See Prefetcher's consumed-history notes.
  uint64_t reissue_suppressed = 0;
};

/// IoPipelineStats' counters in registry order (common/counters.h).
inline constexpr counters::Field<IoPipelineStats> kIoPipelineStatsCounters[] = {
    {"io.submitted", &IoPipelineStats::submitted},
    {"io.prefetch_hits", &IoPipelineStats::prefetch_hits},
    {"io.sync_reads", &IoPipelineStats::sync_reads},
    {"io.queue_full", &IoPipelineStats::queue_full},
    {"io.dropped_stale", &IoPipelineStats::dropped_stale},
    {"io.reissue_suppressed", &IoPipelineStats::reissue_suppressed},
};
static_assert(counters::Covers(kIoPipelineStatsCounters,
                               sizeof(IoPipelineStats)));

/// One demand read answered by the pipeline. `charged` tells the pool
/// whether the virtual-disk accounting happened (it charges its own
/// counters only then — the legacy error contract); `bytes` is OK iff the
/// extent's pages are readable. They are in `data` when the backend moved
/// them (page i at data + i * page_size), and when it served them in place
/// (kInPlace) `data` is null and page i is DiskManager::PageData(first +
/// i), the store's image.
struct ExtentRead {
  sim::PageId first = 0;
  uint64_t count = 0;
  sim::IoResult io;             ///< Valid iff charged.
  bool charged = false;         ///< Virtual accounting happened.
  bool from_queue = false;      ///< Served by a prefetched entry.
  Status bytes = Status::OK();  ///< OK iff the pages are readable.
  AlignedBuffer data;           ///< Null when served in place.
};

/// What BufferPool::FetchSlow calls instead of DiskManager::ChargedRead
/// when a pipeline is attached. Implemented by io::Prefetcher.
class IoPipeline {
 public:
  virtual ~IoPipeline() = default;
  /// Demand read of the clipped extent [first, first + count) at virtual
  /// time `now` — ready-set pop (prefetch hit) or inline charged read.
  [[nodiscard]] virtual ExtentRead Acquire(sim::PageId first, uint64_t count,
                                           sim::Micros now) = 0;
  /// Takes back an ExtentRead's buffer once the pool has copied its pages
  /// out, so a later read can reuse it. The default frees it.
  virtual void Recycle(AlignedBuffer buffer) { buffer.reset(); }
};

}  // namespace scanshare::io
