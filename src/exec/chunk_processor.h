// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// ChunkProcessor: the page-level inner loop shared by every scan operator
// (table scans and block-index scans): fetch each page of
// a contiguous run through the buffer pool, take the page's rows and
// matches from the scan's kernel, release the page with a caller-chosen
// priority, and account virtual CPU/I/O cost under the pipelined model
// (sequential prefetch overlaps transfer with tuple processing, so a chunk
// costs max(cpu, io) plus bookkeeping). The kernel (CompiledPredicate::
// MatchBatch into a selection array, then Aggregator::ConsumeBatch) is
// compiled once, when the scan opens, and runs over the page store's
// images along the scan's walk — inline, or ahead of the event loop on a
// worker (exec/kernel_runahead.h). Predicate::Eval and Aggregator::Consume
// are its reference.

#pragma once

#include <memory>
#include <utility>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "exec/aggregate.h"
#include "exec/kernel_runahead.h"
#include "exec/predicate.h"
#include "exec/query.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"

namespace scanshare::exec {

/// Stateful page-run processor bound to one query execution.
class ChunkProcessor {
 public:
  /// Compiles `query`'s predicate and prepares `aggregator` for the
  /// columnar kernel, and takes the per-tuple cost constants from the
  /// query shape. Both must already be bound against `table`'s schema;
  /// a compile failure is returned as is. The kernel reads the page store
  /// `pool` reads. All pointers are borrowed and must outlive the
  /// processor.
  [[nodiscard]] static StatusOr<ChunkProcessor> Create(
      buffer::BufferPool* pool, const storage::TableInfo* table,
      const CostModel* cost, const QuerySpec& query, Aggregator* aggregator,
      ScanMetrics* metrics);

  /// Cancels the kernel's walk and waits until no worker holds its turn,
  /// so no thread touches the aggregator once the scan is gone.
  ~ChunkProcessor();
  ChunkProcessor(ChunkProcessor&&) noexcept = default;
  ChunkProcessor& operator=(ChunkProcessor&&) = delete;

  /// Fixes the pages the scan will read, in order, and hands the walk to
  /// `workers` when there are any (null: the kernel runs inline). Called
  /// once, when the scan is placed.
  void StartWalk(ScanWalk walk, ThreadPool* workers);

  /// Processes pages [first, end) starting at virtual time `now`,
  /// releasing each with `priority`. The pages must be the walk's next
  /// ones (Internal otherwise). Returns elapsed virtual micros and updates
  /// the bound ScanMetrics once per call (per extent chunk), not per page.
  StatusOr<sim::Micros> ProcessRange(sim::PageId first, sim::PageId end,
                                     sim::Micros now,
                                     buffer::PagePriority priority);

 private:
  ChunkProcessor(buffer::BufferPool* pool, const storage::TableInfo* table,
                 const CostModel* cost, CompiledPredicate predicate,
                 Aggregator* aggregator, ScanMetrics* metrics)
      : pool_(pool),
        store_(pool->disk_manager()),
        table_(table),
        cost_(cost),
        predicate_(std::move(predicate)),
        aggregator_(aggregator),
        metrics_(metrics) {}

  buffer::BufferPool* pool_;
  const storage::DiskManager* store_;
  const storage::TableInfo* table_;
  const CostModel* cost_;
  CompiledPredicate predicate_;
  Aggregator* aggregator_;
  ScanMetrics* metrics_;
  double per_tuple_ns_ = 0.0;
  double per_match_ns_ = 0.0;
  // The current walk's kernel (null before StartWalk), shared with the
  // worker that runs it ahead.
  std::shared_ptr<ScanKernel> kernel_;
};

}  // namespace scanshare::exec
