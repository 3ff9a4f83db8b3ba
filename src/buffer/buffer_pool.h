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
//
// A frame's payload lives where its bytes do. A pull-path install, and a
// push-path install of an extent the backend served in place (the sim
// backend), points the frame at DiskManager's immutable page image (the
// charged read is the modelled cost; a host copy would model nothing).
// Only bytes a backend moved (the file backend) are copied, out of the
// pipeline's extent buffer, which dies with the fetch, into the frame's
// own slab slot.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "buffer/replacer.h"
#include "common/audit.h"
#include "common/counters.h"
#include "common/status.h"
#include "io/pipeline.h"
#include "obs/trace.h"
#include "sim/disk.h"
#include "storage/disk_manager.h"

namespace scanshare::buffer {

/// Outcome of FetchPage: a pinned frame plus I/O timing if a read happened.
struct FetchResult {
  /// The page's bytes, read-only and valid while pinned: the page store's
  /// own image, or the frame's slab copy when a backend moved the bytes
  /// (push-file; DESIGN.md §10.3).
  const uint8_t* data = nullptr;
  bool hit = false;               ///< True if no physical I/O was needed.
  sim::IoResult io{};             ///< Valid iff !hit: when the read completed.
};

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
};

/// BufferPoolStats' counters in registry order (common/counters.h).
inline constexpr counters::Field<BufferPoolStats> kBufferPoolStatsCounters[] = {
    {"buffer.logical_reads", &BufferPoolStats::logical_reads},
    {"buffer.hits", &BufferPoolStats::hits},
    {"buffer.misses", &BufferPoolStats::misses},
    {"buffer.physical_pages", &BufferPoolStats::physical_pages},
    {"buffer.io_requests", &BufferPoolStats::io_requests},
    {"buffer.evictions", &BufferPoolStats::evictions},
    {"buffer.prefetch_hits", &BufferPoolStats::prefetch_hits},
};
static_assert(counters::Covers(kBufferPoolStatsCounters,
                               sizeof(BufferPoolStats)));

/// A fixed-size page cache with explicit pin/unpin and release priorities.
///
/// Not thread-safe: each run's event loop is its only caller (the paper's
/// DB2 prototype of course runs concurrent threads; determinism is part of
/// this reproduction's simulation substitution — see DESIGN.md).
class BufferPool final : public io::ResidencyProbe {
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
  /// A hit is one translation-array load plus pin bookkeeping; misses and
  /// validation failures go through FetchSlow.
  [[nodiscard]] StatusOr<FetchResult> FetchPage(sim::PageId page,
                                                sim::Micros now,
                                                sim::PageId clip_first,
                                                sim::PageId clip_end);

  /// Convenience overload with the clip range spanning the whole disk.
  [[nodiscard]] StatusOr<FetchResult> FetchPage(sim::PageId page, sim::Micros now);

  /// Unpins `page`, attaching the release priority the scan chose (paper
  /// §7.3). Returns NotFound if the page is not resident, or
  /// FailedPrecondition if it was not pinned.
  [[nodiscard]] Status UnpinPage(sim::PageId page, PagePriority priority);

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
  /// Effective prefetch extent (>= 1): a configured 0 reads one page at
  /// a time, the rule SsmOptions::EffectiveExtent states for the SSM.
  uint64_t prefetch_extent_pages() const {
    return std::max<uint64_t>(1, options_.prefetch_extent_pages);
  }
  /// Bytes per frame (mirrors the disk page size).
  uint32_t page_size() const { return disk_->page_size(); }

  /// The page store this pool reads from.
  const storage::DiskManager* disk_manager() const { return disk_; }

  /// The replacement policy in force (for reports).
  const ReplacementPolicy& policy() const { return *policy_; }

  /// Attaches a borrowed event tracer (or detaches with nullptr). The pool
  /// emits kPoolHit/kPoolMiss/kPoolEvict point events. Hooks cost one
  /// untaken branch when detached — the hit path stays within the tracing
  /// overhead budget.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Frame {
    sim::PageId page = sim::kInvalidPageId;
    uint32_t pin_count = 0;
    /// True iff InstallInto copied moved bytes into the slab slot, so
    /// `data` must be SlabSlot; otherwise it must be the page's image.
    bool copied = false;
    /// Read-only payload: the page's DiskManager image, or SlabSlot when a
    /// backend moved the bytes (push-file), as CheckInvariants audits.
    /// Stale while free.
    const uint8_t* data = nullptr;
  };

  /// Frees the slab arena with matching alignment.
  struct SlabDeleter {
    void operator()(uint8_t* p) const noexcept {
      ::operator delete[](p, std::align_val_t{kSlabAlignment});
    }
  };

  /// Cache-line alignment for the arena (and thus every slab slot, page
  /// sizes being powers of two well above 64).
  static constexpr size_t kSlabAlignment = 64;

  /// Frame `frame`'s slot in the slab: where moved bytes are copied to.
  uint8_t* SlabSlot(FrameId frame) const {
    return slab_.get() + static_cast<size_t>(frame) * disk_->page_size();
  }

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

  /// FetchPage's continuation past a hit: validation failures and the
  /// miss/prefetch path.
  [[nodiscard]] StatusOr<FetchResult> FetchSlow(sim::PageId page, sim::Micros now,
                                  sim::PageId clip_first, sim::PageId clip_end);

  /// Finds a frame for a new page: free list first, then eviction. Returns
  /// Internal if called while an extent install is in flight — frames are
  /// acquired *before* installing, so an eviction mid-install would mean
  /// the pool is reclaiming pages the current read just put in. `now` only
  /// stamps the eviction trace event.
  [[nodiscard]] StatusOr<FrameId> GetVictimFrame(sim::Micros now);

  /// Installs `page` into `frame` and registers it with pin_count =
  /// initial_pins. With `src` null the frame points at `page`'s image in
  /// the DiskManager store (no copy); on a media fault on that image the
  /// frame is untouched and may be returned to the free list. Otherwise
  /// `src` is one page of a pipeline extent buffer, freed when the fetch
  /// ends, and is copied into `frame`'s slab slot (cannot fail).
  /// Unpinned (prefetched) pages enter the replacer at High priority: they
  /// are about to be consumed by the fetching scan, making them the most
  /// valuable pages in the pool until released with a scan-chosen hint.
  [[nodiscard]] Status InstallInto(FrameId frame, sim::PageId page,
                                   const uint8_t* src, uint32_t initial_pins);

  /// Returns acquired[from..] to the free list — the shared tail of every
  /// FetchSlow exit path, so no path can leak acquired-but-unused frames.
  void ReturnFrames(const std::vector<FrameId>& acquired, size_t from);

  storage::DiskManager* disk_;
  std::unique_ptr<ReplacementPolicy> policy_;
  BufferPoolOptions options_;
  /// One contiguous aligned arena with a page-sized slot per frame
  /// (num_frames * page_size), allocated at construction and never
  /// zero-filled: only installs of moved bytes (push-file) write it, so a
  /// pull or push-sim pool never faults its pages in.
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
