// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// PartitionedBufferPool: N latch-partitioned BufferPool shards serving
// concurrent morsel workers. Pages map to partitions by *prefetch extent*
// ((page / extent) % N), so a miss's whole extent install stays inside one
// partition and one latch acquisition covers it. Each partition owns a
// private replacer, free list, and translation array; the only cross-
// partition state is the shared DiskManager, whose charged-read path takes
// its own internal lock.
//
// partitions=1 degenerates to exactly one unlatched-in-behaviour BufferPool
// holding every frame — the virtual-time simulator's semantics, preserved
// bit-for-bit (concurrent_buffer_pool_test pins this against a plain pool).
//
// This file is on the domain lint's concurrent-engine allowlist
// (scanshare-threads): it is part of the explicitly concurrent execution
// path, not the deterministic simulator core.

#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>  // std::unique_lock (deferred multi-latch hold in LockAll)
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/page_source.h"
#include "common/lock_order.h"
#include "common/mutex.h"

namespace scanshare::buffer {

/// Builds one partition's replacement policy sized for `num_frames`.
using ReplacementPolicyFactory =
    std::function<std::unique_ptr<ReplacementPolicy>(size_t num_frames)>;

/// Geometry of the whole partitioned pool.
struct PartitionedBufferPoolOptions {
  /// Requested partition count. Clamped so every partition holds at least
  /// two prefetch extents (a shard that cannot stage one extent install
  /// plus one pinned extent would livelock a worker), with a floor of 1.
  size_t partitions = 1;

  /// Geometry of the pool as a whole: `pool.num_frames` is the TOTAL frame
  /// budget, split as evenly as possible across partitions (earlier
  /// partitions absorb the remainder).
  BufferPoolOptions pool;
};

/// N latched BufferPool shards behind the PageSource interface.
class PartitionedBufferPool final : public PageSource,
                                    public io::ResidencyProbe {
 public:
  /// Creates the shards over `disk_manager`; `policy_factory` is invoked
  /// once per partition with that partition's frame count.
  PartitionedBufferPool(storage::DiskManager* disk_manager,
                        const ReplacementPolicyFactory& policy_factory,
                        PartitionedBufferPoolOptions options);

  /// Routes to the owning partition under its latch. Same contract as
  /// BufferPool::FetchPage within the partition.
  [[nodiscard]] StatusOr<FetchResult> FetchPage(sim::PageId page, sim::Micros now,
                                                sim::PageId clip_first,
                                                sim::PageId clip_end) override;

  /// Routes to the owning partition under its latch.
  [[nodiscard]] Status UnpinPage(sim::PageId page, PagePriority priority) override;

  uint32_t page_size() const override;
  /// Effective prefetch extent (>= 1), as BufferPool::prefetch_extent_pages.
  uint64_t prefetch_extent_pages() const override {
    return std::max<uint64_t>(1, options_.pool.prefetch_extent_pages);
  }

  /// Effective partition count after clamping.
  size_t partitions() const { return pools_.size(); }

  /// Partition count the caller asked for (before the frame-budget clamp).
  size_t requested_partitions() const { return requested_partitions_; }

  /// True if the clamp reduced the requested count.
  bool clamped() const { return pools_.size() < requested_partitions_; }

  /// Total frames across all partitions.
  size_t num_frames() const;

  /// Partition owning `page`.
  size_t PartitionOf(sim::PageId page) const {
    return static_cast<size_t>((page / prefetch_extent_pages()) % pools_.size());
  }

  /// Aggregated counters. Takes EVERY partition latch (in index order)
  /// before reading, so the sums are one consistent cut of the whole pool:
  /// an extent install can never be counted in one shard's counters while
  /// a sibling shard's snapshot predates it — `hits + misses ==
  /// logical_reads` holds on every snapshot even under concurrent workers
  /// (concurrent_buffer_pool_test pins this). Totals across snapshots are
  /// still interleaving-dependent; only use them for reporting. Also
  /// carries partitions/partitions_requested so clamped configs are
  /// visible in metrics.
  BufferPoolStats stats() const;

  /// Runs every partition's full cross-structure audit under ALL latches
  /// (index order), so cross-partition sums audited against are one
  /// consistent cut. Partition assignment itself is structural (FetchPage
  /// routes by page id), so a page can never be resident in a foreign
  /// shard.
  [[nodiscard]] Status CheckInvariants() const;

  /// Drops every unpinned page in every partition.
  [[nodiscard]] Status FlushAll();

  /// io::ResidencyProbe: routes to the owning partition under its latch.
  bool IsPageCached(sim::PageId page) const override;

  /// Attaches a borrowed tracer to every partition. With concurrent
  /// workers the tracer must be concurrent (obs::Tracer's constructor) —
  /// partition latches do not serialize cross-partition emissions. If construction clamped the requested partition count, a
  /// kPartitionClamp event (timestamped 0 — the clamp predates the run)
  /// is emitted here so traced runs record the reduced sharding.
  void SetTracer(obs::Tracer* tracer);

  /// Direct shard access for tests. The caller must guarantee quiescence
  /// (no concurrent FetchPage/UnpinPage) — no latch is taken.
  BufferPool& partition(size_t i) { return *pools_[i]; }
  const BufferPool& partition(size_t i) const { return *pools_[i]; }

 private:
  /// Locks every partition latch in index order (the pool-wide lock order;
  /// FetchPage/UnpinPage only ever hold ONE latch, so aggregate readers
  /// taking all of them in a fixed order cannot deadlock against them).
  /// Returns unannotated std::unique_lock guards: capability analysis
  /// cannot track a dynamic *set* of locks, so single-latch paths use
  /// MutexLock and only this aggregate path escapes the analysis
  /// (DESIGN.md §14.3).
  [[nodiscard]] std::vector<std::unique_lock<Mutex>> LockAll() const;

  PartitionedBufferPoolOptions options_;
  size_t requested_partitions_ = 1;
  std::vector<std::unique_ptr<BufferPool>> pools_;
  /// One latch per partition; unique_ptr keeps the vector movable. Each
  /// latch ranks as lock_order::kPoolPartition: held across one shard's
  /// fetch/unpin, ordered before the DiskManager io lock (charged reads
  /// happen under the owning latch) and the tracer. The per-element
  /// ordering attributes live on the Mutex type uses in lock_order.h
  /// because attributes cannot attach to vector elements.
  mutable std::vector<std::unique_ptr<Mutex>> latches_;
};

}  // namespace scanshare::buffer
