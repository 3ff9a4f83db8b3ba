// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// DiskManager owns the page store backing the simulated disk: the page
// images, held in zero-filled anonymous mappings (PageArena) that the bulk
// loader formatted them in, and a page-id -> image table. Reads performed
// through the buffer
// pool are charged against the sim::Disk cost model; the bulk load path
// writes page images directly and charges nothing (experiments reset disk
// statistics after loading anyway).
//
// Page images are stable and immutable once loaded: an image never moves
// (a mapping never moves, and growing the store adds mappings), and only
// the bulk loader and test setup write one, before any pool reads it. The
// buffer pool's pull path relies on both, pointing frames at the images
// instead of copying them (DESIGN.md §10.3).

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sim/env.h"
#include "storage/page_arena.h"

namespace scanshare::storage {

/// Backing store + allocator for disk pages.
///
/// Pages are identified by their position in the linear address space,
/// matching the sim::Disk head model, so "contiguous page ids" means
/// "physically sequential on disk".
class DiskManager {
 public:
  /// Creates a manager over `env`'s disk with the given page size in bytes.
  DiskManager(sim::Env* env, uint32_t page_size = kDefaultPageSizeBytes);

  /// Default page size: 32 KiB (the paper's configuration).
  static constexpr uint32_t kDefaultPageSizeBytes = 32 * 1024;

  /// Allocates `count` physically contiguous zeroed pages, one exact-size
  /// arena; returns the id of the first. Returns InvalidArgument if `count`
  /// is zero, ResourceExhausted if the mapping fails.
  [[nodiscard]] StatusOr<sim::PageId> AllocateContiguous(uint64_t count);

  /// Takes ownership of `arenas` and appends `count` page images as the
  /// next page ids, in place: the pages fill each arena from its start, in
  /// order, and the last may have room to spare. Returns the id of the
  /// first. The bulk loader's path: it formats pages into arenas and hands
  /// them over, so nothing is copied. Returns InvalidArgument, adopting
  /// nothing, if `count` is zero or the arenas hold fewer pages.
  [[nodiscard]] StatusOr<sim::PageId> Adopt(std::vector<PageArena> arenas,
                                            uint64_t count);

  /// Number of pages allocated so far.
  uint64_t num_pages() const { return images_.size(); }

  /// Page size in bytes.
  uint32_t page_size() const { return page_size_; }

  /// Writable (uncharged) access to a page image, for the bulk loader and
  /// test setup only: an image must not change once a pool may have read
  /// it. Returns OutOfRange for unallocated pages.
  [[nodiscard]] StatusOr<uint8_t*> MutablePageData(sim::PageId page);

  /// The page's image, for the read paths after a charged read (stable
  /// and immutable, see above). Returns OutOfRange for unallocated pages,
  /// and Corruption inside an armed media-fault range (below).
  [[nodiscard]] StatusOr<const uint8_t*> PageData(sim::PageId page) const;

  /// True iff `data` is `page`'s image. Bypasses the media-fault shim, so
  /// an auditor can ask without moving page_data_faults_injected().
  bool IsPageImage(sim::PageId page, const uint8_t* data) const {
    return page < images_.size() && images_[page] == data;
  }

  /// `page`'s image, or null for an unallocated page. Bypasses the
  /// media-fault shim like IsPageImage: the tuple kernel reads images
  /// through it (exec/kernel_runahead.h), ahead of and beside the charged
  /// install path, so page_data_faults_injected() counts only that path.
  const uint8_t* PageImage(sim::PageId page) const {
    return page < images_.size() ? images_[page] : nullptr;
  }

  /// Issues a charged read of `count` contiguous pages starting at `first`
  /// at virtual time `now`. Updates disk statistics and queueing state;
  /// the caller reaches the bytes via PageData(). Returns OutOfRange if the
  /// range is not fully allocated. Fault injection armed on the underlying
  /// sim::Disk (see sim::DiskFaultOptions) surfaces here as Corruption.
  [[nodiscard]] StatusOr<sim::IoResult> ChargedRead(sim::PageId first,
                                                    uint64_t count,
                                                    sim::Micros now);

  /// Media-fault shim for the post-read install path (tests only):
  /// PageData() returns Corruption for pages in [first, end), while
  /// ChargedRead over the same range still succeeds. This is the only way
  /// to make the buffer pool's InstallInto fail *mid-extent* — after the
  /// disk request was charged but before every page of the extent is
  /// installed — so the pool's partial-install error paths are reachable
  /// from tests. MutablePageData (the bulk-load path) and IsPageImage are
  /// unaffected.
  void SetPageDataFaultRange(sim::PageId first, sim::PageId end) {
    fault_first_ = first;
    fault_end_ = end;
  }

  /// Disarms the PageData media faults.
  void ClearPageDataFaults() {
    fault_first_ = sim::kInvalidPageId;
    fault_end_ = sim::kInvalidPageId;
  }

  /// PageData calls failed by injection since construction.
  uint64_t page_data_faults_injected() const { return faults_injected_; }

  /// The environment this manager charges I/O against.
  sim::Env* env() const { return env_; }

 private:
  sim::Env* env_;
  uint32_t page_size_;
  // The mappings the images live in. Moving an arena moves its handle,
  // never its region, so growing this vector keeps every image in place.
  std::vector<PageArena> arenas_;
  // Page id -> image, pointing into arenas_.
  std::vector<uint8_t*> images_;
  // PageData media-fault range (tests only); kInvalidPageId = disarmed.
  sim::PageId fault_first_ = sim::kInvalidPageId;
  sim::PageId fault_end_ = sim::kInvalidPageId;
  mutable uint64_t faults_injected_ = 0;
};

}  // namespace scanshare::storage
