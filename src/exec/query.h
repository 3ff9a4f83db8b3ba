// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Query specifications and the execution cost model. A query here is a
// scan-aggregate over one table — the shape of the TPC-H queries whose
// concurrent execution the paper studies. The cost model translates tuple
// and page work into virtual CPU time; together with the disk model it
// determines whether a query is CPU-bound (Q1-like) or I/O-bound (Q6-like).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.h"
#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "sim/virtual_clock.h"

namespace scanshare::exec {

/// Virtual-CPU cost model (all values are per occurrence).
struct CostModel {
  /// Fixed work per visited tuple (slot walk, field access).
  double tuple_base_ns = 50.0;
  /// Work per predicate atom evaluated per tuple.
  double predicate_atom_ns = 30.0;
  /// Work per aggregate folded per matching tuple.
  double agg_ns = 80.0;
  /// Fixed work per page visited (header checks, slot directory).
  double page_cpu_us = 2.0;
  /// Bookkeeping cost per buffer-pool fetch (counted as "system" time).
  double buffer_call_us = 0.5;
  /// Bookkeeping cost per SSM call (start/update/end) — what the paper's
  /// single-stream overhead experiment measures.
  double ssm_call_us = 5.0;
};

/// The tuple kernel, of which one remains: ChunkProcessor's columnar
/// selection + batched folds. This enum, RunConfig::kernel and the
/// StreamExecutor constructor's KernelMode parameter are unread; they stay
/// only because benchmark/layers.cc passes RunConfig::kernel to that
/// constructor, and go together with it (ROADMAP.md item 2).
enum class KernelMode {
  kColumnar,  ///< Branch-free columnar selection + batched folds (SIMD).
};

/// How a query reads its table.
enum class AccessPath {
  kTableScan,  ///< Sequential heap scan over a page range.
  kIndexScan,  ///< MDC block-index scan over a clustering-key range
               ///< (extension layer; requires a block index on the table).
};

/// One scan-aggregate query over one table.
struct QuerySpec {
  /// Template name used for per-query reporting ("Q1", "Q6", ...).
  std::string name;
  /// Table to scan.
  std::string table;
  /// Access path; kIndexScan uses [key_lo, key_hi] on the block index.
  AccessPath access = AccessPath::kTableScan;
  /// Clustering-key range for kIndexScan (inclusive bounds).
  int64_t key_lo = 0;
  int64_t key_hi = 0;
  /// Row filter (empty = accept all).
  Predicate predicate;
  /// Aggregates to compute over matching rows.
  std::vector<AggSpec> aggs;
  /// Char columns forming the group key (may be empty).
  std::vector<std::string> group_by;
  /// Extra per-tuple CPU (ns) modelling expensive evaluation work, e.g.
  /// TPC-H Q1's decimal arithmetic. This is the knob that makes a query
  /// CPU-bound.
  double per_tuple_extra_ns = 0.0;
  /// Scanned fraction of the table: [range_start_frac, range_end_frac).
  /// Full-table scans use [0, 1).
  double range_start_frac = 0.0;
  double range_end_frac = 1.0;
  /// Throttle-budget scale for this query's scans (the paper's
  /// query-priority extension): 1.0 = default fairness cap, 0 = this
  /// query's scans are never throttled (interactive priority), >1 =
  /// background query that may donate more time to the group.
  double throttle_tolerance = 1.0;
};

/// Per-execution scan counters, split the way the paper's CPU-usage
/// figures are (user / system-like overhead / I/O wait / throttle idle).
struct ScanMetrics {
  sim::Micros start_time = 0;
  sim::Micros end_time = 0;
  uint64_t pages_scanned = 0;
  uint64_t tuples_scanned = 0;
  uint64_t tuples_matched = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  sim::Micros cpu = 0;            ///< "User" time: tuple + page processing.
  sim::Micros io_stall = 0;       ///< Unoverlapped I/O wait.
  sim::Micros throttle_wait = 0;  ///< Waits inserted by the SSM.
  sim::Micros overhead = 0;       ///< Buffer/SSM call bookkeeping ("system").

  /// Total virtual time attributed to this scan.
  sim::Micros Elapsed() const { return end_time - start_time; }
};

/// ScanMetrics' counters (common/counters.h). No registry reads them; the
/// names follow the registry's style, and metrics::BitIdentical reports a
/// differing query counter as e.g. "query.cpu_us[stream.query]".
inline constexpr counters::Field<ScanMetrics> kScanMetricsCounters[] = {
    {"query.start_us", &ScanMetrics::start_time},
    {"query.end_us", &ScanMetrics::end_time},
    {"query.pages_scanned", &ScanMetrics::pages_scanned},
    {"query.tuples_scanned", &ScanMetrics::tuples_scanned},
    {"query.tuples_matched", &ScanMetrics::tuples_matched},
    {"query.buffer_hits", &ScanMetrics::buffer_hits},
    {"query.buffer_misses", &ScanMetrics::buffer_misses},
    {"query.cpu_us", &ScanMetrics::cpu},
    {"query.io_stall_us", &ScanMetrics::io_stall},
    {"query.throttle_wait_us", &ScanMetrics::throttle_wait},
    {"query.overhead_us", &ScanMetrics::overhead},
};
static_assert(counters::Covers(kScanMetricsCounters, sizeof(ScanMetrics)));

}  // namespace scanshare::exec
