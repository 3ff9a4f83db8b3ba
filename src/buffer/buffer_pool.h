// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Buffer pool: fixed set of page frames over the simulated disk, with a
// pluggable replacement policy and extent-granular sequential prefetch
// (DB2-style). All physical reads are charged against the sim::Disk cost
// model at an explicit virtual timestamp supplied by the caller, so the
// deterministic executor fully controls time.
//
// Page translation is one direct-mapped array: a slot per disk page
// (kInvalidFrame when absent) plus a residency bitmap, so the hit path is
// a bounds check and one indexed load. CheckInvariants cross-audits the
// array, the frames, the bitmap and the replacer.

#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "buffer/page_source.h"
#include "buffer/replacer.h"
#include "common/audit.h"
#include "common/status.h"
#include "io/pipeline.h"
#include "obs/trace.h"
#include "storage/disk_manager.h"

namespace scanshare::buffer {

/// Sentinel translation-table entry: "this page has no frame".
inline constexpr FrameId kInvalidFrame = static_cast<FrameId>(-1);

/// Tuning knobs for the buffer pool.
struct BufferPoolOptions {
  /// Frames in the pool. The experiments size this at ~5 % of the database
  /// (the paper's configuration).
  size_t num_frames = 1024;

  /// Sequential prefetch unit in pages: a miss reads the whole surrounding
  /// aligned extent in one disk request. 16 pages of 32 KiB = 512 KiB, the
  /// paper's block/extent configuration.
  uint64_t prefetch_extent_pages = 16;
};

/// Counters exposed for the experiments.
struct BufferPoolStats {
  uint64_t logical_reads = 0;   ///< FetchPage calls.
  uint64_t hits = 0;            ///< Satisfied from memory.
  uint64_t misses = 0;          ///< Required a physical read.
  uint64_t physical_pages = 0;  ///< Pages transferred from disk.
  uint64_t io_requests = 0;     ///< Disk requests issued (after prefetch batching).
  uint64_t evictions = 0;       ///< Victim frames recycled.
  /// Misses served from the push pipeline's ready queue (always 0 without
  /// an attached IoPipeline — the default and golden configuration).
  uint64_t prefetch_hits = 0;
  /// Effective partition count serving this pool (1 for an unsharded
  /// BufferPool). PartitionedBufferPool sets both fields on aggregate
  /// snapshots so bench configs can SEE when the frame-budget clamp
  /// reduced the sharding they asked for instead of silently running
  /// unsharded.
  uint64_t partitions = 1;
  uint64_t partitions_requested = 1;  ///< Count asked for before clamping.
};

/// A fixed-size page cache with explicit pin/unpin and release priorities.
///
/// Not thread-safe: the deterministic executor serializes all access (the
/// paper's DB2 prototype of course runs concurrent threads; determinism is
/// part of this reproduction's simulation substitution — see DESIGN.md).
/// Concurrent scans go through PartitionedBufferPool, which shards page
/// ids over N latched instances of this class. `final` so calls through a
/// concrete BufferPool* devirtualize and the inline hit path below keeps
/// its cost in the simulator.
class BufferPool final : public PageSource, public io::ResidencyProbe {
 public:
  /// Creates a pool of `options.num_frames` frames over `disk_manager`,
  /// evicting with `policy`.
  BufferPool(storage::DiskManager* disk_manager,
             std::unique_ptr<ReplacementPolicy> policy,
             BufferPoolOptions options = BufferPoolOptions());

  /// Fetches `page` at virtual time `now`, pinning its frame. On a miss the
  /// surrounding aligned prefetch extent, clipped to [`clip_first`,
  /// `clip_end`), is read in one disk request and its pages are cached.
  /// Pass clip bounds covering the table being scanned so prefetch never
  /// crosses into a neighbouring table.
  ///
  /// Returns OutOfRange for unallocated pages, ResourceExhausted if every
  /// frame is pinned, InvalidArgument if `page` is outside the clip range,
  /// and propagates disk read failures as Corruption.
  ///
  /// Error-path guarantees (see DESIGN.md "Error-path semantics"): a fetch
  /// that fails validation or for lack of frames leaves every
  /// BufferPoolStats counter and the virtual disk untouched and pins
  /// nothing. A fetch whose disk read fails (injected fault) charges no
  /// read counters and no disk time either, though victims evicted while
  /// securing frames stay evicted (counted in `evictions`; losing cache
  /// contents is permitted, losing frames is not). A fetch that fails
  /// after the read (a per-page media fault during extent install) keeps
  /// the I/O charge — the read physically happened — but still pins
  /// nothing and never leaks frames. In all cases the pool remains in a
  /// state where CheckInvariants() passes.
  ///
  /// Every hit is resolved in this header: one translation-array load plus
  /// pin bookkeeping. Misses and validation failures go through the
  /// out-of-line FetchSlow.
  [[nodiscard]] StatusOr<FetchResult> FetchPage(sim::PageId page, sim::Micros now,
                                  sim::PageId clip_first,
                                  sim::PageId clip_end) override {
    if (page < translation_.size()) {
      const FrameId frame = translation_[page];
      if (frame != kInvalidFrame) {
        if (page < clip_first || page >= clip_end) {
          return Status::InvalidArgument("FetchPage: page outside clip range");
        }
        ++stats_.logical_reads;
        ++stats_.hits;
        SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kPoolHit, now,
                              /*actor=*/0, page);
        Frame& f = frames_[frame];
        ++f.pin_count;
        policy_->Pin(frame);
        policy_->RecordAccess(frame);
        FetchResult result;
        result.data = f.data;
        result.hit = true;
        SCANSHARE_AUDIT_OK(CheckInvariants());
        return result;
      }
    }
    return FetchSlow(page, now, clip_first, clip_end);
  }

  /// Convenience overload with the clip range spanning the whole disk.
  [[nodiscard]] StatusOr<FetchResult> FetchPage(sim::PageId page, sim::Micros now);

  /// Unpins `page`, attaching the release priority the scan chose (paper
  /// §7.3). Returns NotFound if the page is not resident, or
  /// FailedPrecondition if it was not pinned.
  [[nodiscard]] Status UnpinPage(sim::PageId page, PagePriority priority) override;

  /// True if `page` is currently cached (pinned or not).
  bool Contains(sim::PageId page) const { return IsResident(page); }

  /// io::ResidencyProbe: the push pipeline's pump asks this before issuing
  /// a window extent. Same answer as Contains().
  bool IsPageCached(sim::PageId page) const override {
    return IsResident(page);
  }

  /// Attaches the push I/O pipeline (or detaches with nullptr). While
  /// attached, FetchSlow routes every extent read through
  /// IoPipeline::Acquire — a ready-queue pop when the pump got there
  /// first, the identical charged read inline otherwise — instead of
  /// calling DiskManager directly. Default (detached) keeps the legacy
  /// pull path bit-identical.
  void SetIoPipeline(io::IoPipeline* pipeline) { pipeline_ = pipeline; }

  /// Current pin count of a resident page (0 if resident-unpinned);
  /// NotFound if not resident.
  [[nodiscard]] StatusOr<uint32_t> PinCount(sim::PageId page) const;

  /// Counters since construction or the last ResetStats().
  const BufferPoolStats& stats() const { return stats_; }

  /// Zeroes the counters; cached contents are untouched.
  void ResetStats() { stats_ = BufferPoolStats{}; }

  /// Drops every unpinned page (test/experiment isolation helper).
  /// Returns FailedPrecondition if any page is still pinned.
  [[nodiscard]] Status FlushAll();

  /// Full cross-structure consistency audit. Verifies, in O(frames +
  /// translation size):
  ///   - every frame is either occupied or on the free list, never both,
  ///     and the free list has no duplicates (no frame leaks);
  ///   - every occupied frame's page maps back to that frame in the
  ///     translation array and has its residency bit set;
  ///   - every translation entry points at a frame holding that page, and
  ///     the mapped-entry count, the residency-bitmap population count,
  ///     and the occupied-frame count all agree;
  ///   - the replacement policy tracks exactly the occupied frames, a
  ///     frame is evictable iff its pin count is zero, and the policy's
  ///     evictable count matches.
  /// Returns Internal with a description of the first violation. Always
  /// compiled in; additionally invoked after every mutation in
  /// SCANSHARE_AUDIT builds (see common/audit.h).
  [[nodiscard]] Status CheckInvariants() const;

  /// Pool geometry.
  size_t num_frames() const { return options_.num_frames; }
  uint64_t prefetch_extent_pages() const override {
    return options_.prefetch_extent_pages;
  }
  /// Bytes per frame (mirrors the disk page size).
  uint32_t page_size() const override { return disk_->page_size(); }

  /// The replacement policy in force (for reports).
  const ReplacementPolicy& policy() const { return *policy_; }

  /// Attaches a borrowed event tracer (or detaches with nullptr). The pool
  /// emits kPoolHit/kPoolMiss/kPoolEvict point events. Hooks cost one
  /// untaken branch when detached — the hit path above stays within the
  /// tracing overhead budget.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Frame {
    sim::PageId page = sim::kInvalidPageId;
    uint32_t pin_count = 0;
    /// Payload: points into the pool's slab arena, frame i at byte offset
    /// i * page_size. Owned by slab_, valid for the pool's lifetime.
    uint8_t* data = nullptr;
  };

  /// Frees the slab arena with matching alignment.
  struct SlabDeleter {
    void operator()(uint8_t* p) const noexcept {
      ::operator delete[](p, std::align_val_t{kSlabAlignment});
    }
  };

  /// Cache-line alignment for the arena (and thus every frame payload,
  /// page sizes being powers of two well above 64).
  static constexpr size_t kSlabAlignment = 64;

  /// Residency bitmap probe: one bit per disk page. The prefetch path
  /// tests this instead of probing the translation array per extent page.
  bool IsResident(sim::PageId page) const {
    const size_t word = static_cast<size_t>(page >> 6);
    return word < resident_.size() &&
           (resident_[word] >> (page & 63)) & 1ULL;
  }
  void SetResident(sim::PageId page) {
    resident_[static_cast<size_t>(page >> 6)] |= 1ULL << (page & 63);
  }
  void ClearResident(sim::PageId page) {
    resident_[static_cast<size_t>(page >> 6)] &= ~(1ULL << (page & 63));
  }

  /// Grows the translation array / bitmap when the disk was extended after
  /// pool construction (tests allocate pages lazily).
  void EnsureCapacity(sim::PageId max_page);

  /// Translation lookup off the inline hit path.
  FrameId LookupFrame(sim::PageId page) const {
    return page < translation_.size() ? translation_[page] : kInvalidFrame;
  }

  /// Records / removes a page→frame mapping in the translation array and
  /// the residency bitmap.
  void MapInsert(sim::PageId page, FrameId frame) {
    translation_[page] = frame;
    SetResident(page);
  }
  void MapErase(sim::PageId page) {
    translation_[page] = kInvalidFrame;
    ClearResident(page);
  }

  /// Out-of-line continuation of FetchPage: validation failures and the
  /// miss/prefetch path.
  [[nodiscard]] StatusOr<FetchResult> FetchSlow(sim::PageId page, sim::Micros now,
                                  sim::PageId clip_first, sim::PageId clip_end);

  /// Finds a frame for a new page: free list first, then eviction. Returns
  /// Internal if called while an extent install is in flight — frames are
  /// acquired *before* installing, so an eviction mid-install would mean
  /// the pool is reclaiming pages the current read just put in. `now` only
  /// stamps the eviction trace event.
  [[nodiscard]] StatusOr<FrameId> GetVictimFrame(sim::Micros now);

  /// Installs `page` into `frame` with pin_count = initial_pins. Unpinned
  /// (prefetched) pages enter the replacer at High priority: they are
  /// about to be consumed by the fetching scan, making them the most
  /// valuable pages in the pool until released with a scan-chosen hint.
  /// On failure (media fault on the page image) the frame is untouched
  /// and may be returned to the free list.
  [[nodiscard]] Status InstallInto(FrameId frame, sim::PageId page, uint32_t initial_pins);

  /// Install core shared by the pull path (bytes from DiskManager's page
  /// images) and the push path (bytes from a pipeline extent buffer):
  /// copies `src` (one page) into `frame` and registers the mapping.
  /// Cannot fail — the bytes already exist.
  void InstallFromBuffer(FrameId frame, sim::PageId page, const uint8_t* src,
                         uint32_t initial_pins);

  /// Returns acquired[from..] to the free list — the shared tail of every
  /// FetchSlow exit path, so no path can leak acquired-but-unused frames.
  void ReturnFrames(const std::vector<FrameId>& acquired, size_t from);

  storage::DiskManager* disk_;
  std::unique_ptr<ReplacementPolicy> policy_;
  BufferPoolOptions options_;
  /// One contiguous aligned arena holding every frame payload, sized at
  /// construction (num_frames * page_size). Replaces per-frame vector
  /// allocations: extent installs write into adjacent memory, and
  /// FetchSlow never touches the allocator.
  std::unique_ptr<uint8_t[], SlabDeleter> slab_;
  std::vector<Frame> frames_;
  std::vector<FrameId> free_list_;
  std::vector<FrameId> translation_;   // PageId -> FrameId.
  std::vector<uint64_t> resident_;     // 1 bit per page.
  bool installing_ = false;            // Extent install in flight (assert guard).
  BufferPoolStats stats_;
  obs::Tracer* tracer_ = nullptr;      // Borrowed; wired per run by the engine.
  io::IoPipeline* pipeline_ = nullptr; // Borrowed; null = legacy pull path.
};

}  // namespace scanshare::buffer
