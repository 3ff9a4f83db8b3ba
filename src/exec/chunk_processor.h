// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// ChunkProcessor: the page-level inner loop shared by every scan operator
// (table scans, block-index scans and morsel workers): fetch each page of
// a contiguous run through the buffer pool, validate it, run the columnar
// tuple kernel (CompiledPredicate::MatchBatch into a selection array, then
// Aggregator::ConsumeBatch), release with a caller-chosen priority, and
// account virtual CPU/I/O cost under the pipelined model (sequential
// prefetch overlaps transfer with tuple processing, so a chunk costs
// max(cpu, io) plus bookkeeping). The kernel is compiled once, when the
// scan opens; Predicate::Eval and Aggregator::Consume are its reference.

#pragma once

#include <utility>
#include <vector>

#include "buffer/page_source.h"
#include "common/status.h"
#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "exec/query.h"
#include "storage/catalog.h"

namespace scanshare::exec {

/// Stateful page-run processor bound to one query execution.
class ChunkProcessor {
 public:
  /// Compiles `query`'s predicate and prepares `aggregator` for the
  /// columnar kernel, and takes the per-tuple cost constants from the
  /// query shape. Both must already be bound against `table`'s schema;
  /// a compile failure is returned as is. All pointers are borrowed and
  /// must outlive the processor.
  [[nodiscard]] static StatusOr<ChunkProcessor> Create(
      buffer::PageSource* pool, const storage::TableInfo* table,
      const CostModel* cost, const QuerySpec& query, Aggregator* aggregator,
      ScanMetrics* metrics);

  /// Processes pages [first, end) starting at virtual time `now`,
  /// releasing each with `priority`. Returns elapsed virtual micros and
  /// updates the bound ScanMetrics once per call (per extent chunk), not
  /// per page.
  StatusOr<sim::Micros> ProcessRange(sim::PageId first, sim::PageId end,
                                     sim::Micros now,
                                     buffer::PagePriority priority);

 private:
  ChunkProcessor(buffer::PageSource* pool, const storage::TableInfo* table,
                 const CostModel* cost, CompiledPredicate predicate,
                 Aggregator* aggregator, ScanMetrics* metrics)
      : pool_(pool),
        table_(table),
        cost_(cost),
        predicate_(std::move(predicate)),
        aggregator_(aggregator),
        metrics_(metrics) {}

  buffer::PageSource* pool_;
  const storage::TableInfo* table_;
  const CostModel* cost_;
  CompiledPredicate predicate_;
  Aggregator* aggregator_;
  ScanMetrics* metrics_;
  double per_tuple_ns_ = 0.0;
  double per_match_ns_ = 0.0;

  // Kernel scratch, reused across pages: materialized tuple pointers and
  // the per-slot selection flags.
  std::vector<const uint8_t*> batch_tuples_;
  std::vector<uint8_t> batch_sel_;
};

}  // namespace scanshare::exec
