// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Prefetcher — the push side of the I/O pipeline (DESIGN.md §15). It
// watches ScanSharingManager group frontiers and keeps a bounded window of
// extent reads issued *ahead* of each group's leader, so that one read
// serves the whole group and a demand miss becomes a queue pop instead of
// a synchronous disk round trip.
//
// Operation:
//   Pump(now)    poll SSM frontiers, drop stale ready extents, and issue
//                missing window extents through the IoBackend (the
//                deterministic virtual charge happens here, at submit
//                time). The sequential executor pumps after every stream
//                step — fixed deterministic points.
//   Acquire(...) the demand side, called by BufferPool::FetchSlow after it
//                secured frames: pops the matching ready extent (prefetch
//                hit) or performs the same charged read inline (sync
//                fallback) — either way the caller gets one ExtentRead
//                naming the bytes and carrying the virtual-time charge.
//
// Buffers: every read hands the backend a spare extent buffer from a free
// list. A backend that serves the extent in place (kInPlace, the sim
// backend) leaves it unwritten and it goes straight back, so a push-sim
// run allocates one buffer in all; one that moves bytes (the file backend)
// fills it and the read keeps it until the pool has copied the pages out
// (Recycle) or a stale drop discards the extent. So a push-file run holds
// at most one buffer beyond the extents ready at once.
//
// Determinism: with the sim backend every charge is issued at a pump or
// demand point fully determined by the executor's event order, and the
// frontier walk is deterministic (tables ascending, groups in snapshot
// order), so push-sim runs are bit-identical across repetitions. The file
// backend only changes where bytes come from.
//
// Staleness: ready extents are keyed by their clipped first page. After a
// regroup or a wrap the windows move; any ready extent no longer inside
// some group's window is dropped at the next pump (kIoPrefetchDrop) — its
// in-flight bytes are joined first, and it was never installed anywhere,
// so a re-targeted read can never double-install (residency is re-checked
// at install time by the pool regardless).
//
// Consumed history: a scan reports its position to the SSM at chunk
// *start* (paper Fig. 3 ordering), so while it stalls and computes
// through extent P every pump still aims P's group window at P. The
// residency probe normally absorbs that staleness (P's pages are cached,
// nothing is issued) — but under a small pool a racing group can evict P
// before the leader's next update, and the pump would then re-read an
// extent its consumer has already processed, charge it, and drop it at
// the next update: a charge/drop churn that can waste a double-digit
// share of disk bandwidth. The prefetcher therefore remembers the last
// few consumed extent keys (a bounded FIFO, a few windows deep) and never
// re-issues them (stats_.reissue_suppressed). A throttled leader's
// not-yet-consumed window front is unaffected — prefetching into a
// throttle wait is the pipeline/SSM synergy and only *consumed* keys are
// suppressed. The history is far smaller than any scan circle, so by the
// time a key comes around again (next pass or next query) it has long
// been forgotten.
//
// Refill hysteresis: the pump refills a group's window only once it has
// drained to a low-water mark (a quarter of the window budget), and then
// fills it completely. Topping up one extent per pump would interleave
// the groups' submissions in the FCFS disk queue extent-by-extent —
// with groups on different tables that is a full seek per extent. The
// burst refill puts a run of sequential extents into the queue instead,
// so the arm serves one group for the whole run before switching: same
// transfers, a fraction of the seeks. This is the pipeline's makespan
// win (the demand engine already overlaps a scan's transfer with its
// chunk CPU, so there is nothing to gain there; see DESIGN.md §15.2 and
// bench_paper --exp=A10).
//
// Threads: the run's event loop is the only caller (the executor pumps,
// the pool acquires), so the prefetcher takes no lock. The file backend's
// workers touch only the backend's own job queue.

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/io_backend.h"
#include "io/pipeline.h"
#include "obs/trace.h"
#include "ssm/scan_sharing_manager.h"

namespace scanshare::io {

/// Push-side scheduler + bounded ready store. One per run, called from the
/// run's event loop only.
class Prefetcher final : public IoPipeline {
 public:
  /// Borrows everything. `ssm` may be null (demand-only pipeline: Pump is
  /// a no-op, Acquire still routes reads through `backend`). `residency`
  /// may be null (windows are issued without the already-cached skip).
  Prefetcher(IoBackend* backend, ssm::ScanSharingManager* ssm,
             const ResidencyProbe* residency, uint64_t extent_pages,
             PrefetchOptions options);

  /// Joins and discards every un-consumed ready extent.
  ~Prefetcher() override;

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// One scheduling round at virtual time `now`: refresh frontiers, drop
  /// stale extents, issue missing window extents. Issue-time failures are
  /// *stored* per extent and surface at Acquire, exactly where the demand
  /// path would have failed.
  void Pump(sim::Micros now);

  /// Demand read of the clipped extent [first, first + count) at time
  /// `now` — ready-set pop or inline charged read; see ExtentRead.
  [[nodiscard]] ExtentRead Acquire(sim::PageId first, uint64_t count,
                                   sim::Micros now) override;

  /// Puts a consumed extent buffer on the free list for the next read.
  void Recycle(AlignedBuffer buffer) override {
    spares_.push_back(std::move(buffer));
  }

  /// Counter snapshot.
  IoPipelineStats stats() const { return stats_; }

  /// Un-consumed ready extents (test introspection).
  size_t ready_extents() const { return ready_.size(); }

  /// Extent buffers allocated so far (test introspection).
  uint64_t buffers_allocated() const { return buffers_allocated_; }

  /// The byte source in use.
  const IoBackend& backend() const { return *backend_; }

  uint64_t extent_pages() const { return extent_pages_; }
  const PrefetchOptions& options() const { return options_; }

  /// Attaches a borrowed event tracer (or detaches with nullptr). Emits
  /// kIoSubmit / kIoComplete / kIoQueueFull / kIoPrefetchHit /
  /// kIoPrefetchDrop, all actor-ed by table id. Wire before the run.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// A charged-and-issued window extent awaiting its consumer.
  struct ReadyExtent {
    uint64_t count = 0;
    sim::IoResult io;             ///< Valid iff charged.
    bool charged = false;
    Status bytes = Status::OK();  ///< Issue-time error, surfaced at Acquire.
    ReadToken token = kNoToken;   ///< Outstanding byte movement, if any.
    AlignedBuffer data;           ///< Null when served in place.
    uint32_t table_id = 0;        ///< Trace actor.
  };

  /// One extent a group's window wants ready, in demand-key terms.
  struct WindowExtent {
    sim::PageId first = 0;  ///< Clipped extent first page (the ready_ key).
    uint64_t count = 0;
    uint32_t table_id = 0;
    ssm::ScanId leader = ssm::kInvalidScanId;
  };

  /// The clipped extents the leader of `f` will demand next, in order,
  /// wrapping with the scan circle; at most `depth` entries, deduplicated
  /// (small tables wrap onto themselves). Mirrors FetchSlow's extent
  /// clipping exactly so ready keys match demand keys.
  std::vector<WindowExtent> WindowFor(const ssm::GroupFrontier& f) const;

  IoBackend* backend_;
  ssm::ScanSharingManager* ssm_;
  const ResidencyProbe* residency_;
  const uint64_t extent_pages_;
  const PrefetchOptions options_;
  obs::Tracer* tracer_ = nullptr;

  /// Ready extents keyed by clipped first page (the same key FetchSlow
  /// computes for a demand miss). Ordered map: deterministic drop order.
  std::map<sim::PageId, ReadyExtent> ready_;
  IoPipelineStats stats_;

  /// Recently consumed extent keys (see the consumed-history file notes):
  /// FIFO order for eviction, set for the pump's membership test. Bounded
  /// by ConsumedHistoryCap().
  std::deque<sim::PageId> consumed_fifo_;
  std::unordered_set<sim::PageId> consumed_keys_;

  /// Bound of the consumed history: a few windows deep — enough to cover
  /// every frontier's staleness, far smaller than a scan circle.
  uint64_t ConsumedHistoryCap() const {
    return std::max<uint64_t>(16, 4 * options_.depth);
  }

  /// Records a demand-consumed extent key.
  void RecordConsumed(sim::PageId first);

  /// Starts a charged read's bytes into a spare buffer; the spare moves
  /// into `*data` unless the backend answered kInPlace or failed.
  [[nodiscard]] Status StartRead(sim::PageId first, uint64_t count,
                                 AlignedBuffer* data, ReadToken* token);

  /// Extent buffers no read holds, each at least extent_pages_ pages.
  std::vector<AlignedBuffer> spares_;
  uint64_t buffers_allocated_ = 0;
};

}  // namespace scanshare::io
