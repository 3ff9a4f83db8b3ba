// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.

#include "buffer/partitioned_buffer_pool.h"

#include <algorithm>
#include <utility>

#include "common/counters.h"

namespace scanshare::buffer {

namespace {

/// Clamps the requested partition count so every shard can hold at least
/// two full prefetch extents (one mid-install, one pinned by a lagging
/// reader), with a floor of one partition.
size_t EffectivePartitions(const PartitionedBufferPoolOptions& options) {
  const uint64_t extent =
      options.pool.prefetch_extent_pages > 0 ? options.pool.prefetch_extent_pages : 1;
  const size_t min_frames_per_partition = static_cast<size_t>(2 * extent);
  const size_t max_partitions =
      std::max<size_t>(1, options.pool.num_frames / min_frames_per_partition);
  return std::clamp<size_t>(options.partitions, 1, max_partitions);
}

}  // namespace

PartitionedBufferPool::PartitionedBufferPool(
    storage::DiskManager* disk_manager, const ReplacementPolicyFactory& policy_factory,
    PartitionedBufferPoolOptions options)
    : options_(std::move(options)) {
  requested_partitions_ = std::max<size_t>(1, options_.partitions);
  const size_t partitions = EffectivePartitions(options_);
  options_.partitions = partitions;
  const size_t total_frames = options_.pool.num_frames;
  const size_t base = total_frames / partitions;
  const size_t extra = total_frames % partitions;
  pools_.reserve(partitions);
  latches_.reserve(partitions);
  for (size_t i = 0; i < partitions; ++i) {
    BufferPoolOptions shard = options_.pool;
    shard.num_frames = base + (i < extra ? 1 : 0);
    pools_.push_back(std::make_unique<BufferPool>(
        disk_manager, policy_factory(shard.num_frames), shard));
    latches_.push_back(std::make_unique<Mutex>());
  }
}

StatusOr<FetchResult> PartitionedBufferPool::FetchPage(sim::PageId page, sim::Micros now,
                                                       sim::PageId clip_first,
                                                       sim::PageId clip_end) {
  const size_t p = PartitionOf(page);
  MutexLock lock(*latches_[p]);
  return pools_[p]->FetchPage(page, now, clip_first, clip_end);
}

Status PartitionedBufferPool::UnpinPage(sim::PageId page, PagePriority priority) {
  const size_t p = PartitionOf(page);
  MutexLock lock(*latches_[p]);
  return pools_[p]->UnpinPage(page, priority);
}

uint32_t PartitionedBufferPool::page_size() const { return pools_[0]->page_size(); }

size_t PartitionedBufferPool::num_frames() const {
  size_t total = 0;
  for (const auto& pool : pools_) total += pool->num_frames();
  return total;
}

std::vector<std::unique_lock<Mutex>> PartitionedBufferPool::LockAll()
    const {
  std::vector<std::unique_lock<Mutex>> locks;
  locks.reserve(latches_.size());
  for (const auto& latch : latches_) locks.emplace_back(*latch);
  return locks;
}

BufferPoolStats PartitionedBufferPool::stats() const {
  // All latches before any read: locking shards one at a time would let a
  // concurrent extent install be counted in an already-read shard's
  // logical_reads but land its miss in a not-yet-read one (or vice versa),
  // tearing the hits + misses == logical_reads identity the consumers
  // assume.
  const auto locks = LockAll();
  BufferPoolStats total;
  for (const auto& pool : pools_) {
    counters::Add(kBufferPoolStatsCounters, pool->stats(), &total);
  }
  // The partition fields describe the whole pool, not a per-shard sum.
  total.partitions = pools_.size();
  total.partitions_requested = requested_partitions_;
  return total;
}

Status PartitionedBufferPool::CheckInvariants() const {
  const auto locks = LockAll();
  for (const auto& pool : pools_) {
    Status status = pool->CheckInvariants();
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status PartitionedBufferPool::FlushAll() {
  for (size_t i = 0; i < pools_.size(); ++i) {
    MutexLock lock(*latches_[i]);
    Status status = pools_[i]->FlushAll();
    if (!status.ok()) return status;
  }
  return Status::OK();
}

bool PartitionedBufferPool::IsPageCached(sim::PageId page) const {
  const size_t p = PartitionOf(page);
  MutexLock lock(*latches_[p]);
  return pools_[p]->Contains(page);
}

void PartitionedBufferPool::SetTracer(obs::Tracer* tracer) {
  for (size_t i = 0; i < pools_.size(); ++i) {
    MutexLock lock(*latches_[i]);
    pools_[i]->SetTracer(tracer);
  }
  if (clamped()) {
    // Surface the silent clamp in the trace: arg0 = effective count,
    // arg1 = requested. Timestamp 0 — the clamp happened at construction,
    // before virtual time started.
    SCANSHARE_TRACE_EVENT(tracer, obs::EventKind::kPartitionClamp,
                          /*at=*/0, /*actor=*/0, pools_.size(),
                          requested_partitions_);
  }
}

}  // namespace scanshare::buffer
