// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// PageSource: the fetch/unpin surface scan operators consume. Two
// implementations exist:
//
//  * BufferPool — the single-threaded pool the deterministic virtual-time
//    executor drives (one pool per simulated run, no locks, exact golden
//    behaviour);
//  * PartitionedBufferPool — N latch-partitioned BufferPool shards for the
//    morsel-parallel executor, safe under concurrent workers.
//
// The scan inner loop (ChunkProcessor, PageGuard) is written against this
// interface so the same page-processing code serves both worlds. Calls
// through a concrete BufferPool* devirtualize (the class is final), so the
// simulator's inline hit path keeps its cost.

#pragma once

#include <cstdint>

#include "buffer/replacer.h"
#include "common/status.h"
#include "sim/disk.h"

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

/// Abstract page fetch/unpin provider for scan operators.
class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Fetches `page` at virtual time `now`, pinning its frame. On a miss the
  /// surrounding aligned prefetch extent, clipped to [`clip_first`,
  /// `clip_end`), is read in one disk request. See BufferPool::FetchPage
  /// for the full error-path contract every implementation honours.
  [[nodiscard]] virtual StatusOr<FetchResult> FetchPage(sim::PageId page,
                                                        sim::Micros now,
                                                        sim::PageId clip_first,
                                                        sim::PageId clip_end) = 0;

  /// Unpins `page`, attaching the release priority the scan chose.
  [[nodiscard]] virtual Status UnpinPage(sim::PageId page,
                                         PagePriority priority) = 0;

  /// Bytes per page frame.
  virtual uint32_t page_size() const = 0;

  /// Sequential prefetch unit in pages (scan chunking granularity).
  virtual uint64_t prefetch_extent_pages() const = 0;
};

}  // namespace scanshare::buffer
