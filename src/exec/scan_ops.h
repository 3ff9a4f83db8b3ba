// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The two scan operators under study:
//
//  * TableScanOp — the baseline TSCAN: scans its range front-to-back,
//    releases pages at Normal priority, knows nothing about other scans.
//  * SharedScanOp — the paper's sharing scan (the table-scan SISCAN
//    analogue): asks the Scan Sharing Manager where to start, scans
//    [startLoc, range_end) then wraps to [range_first, startLoc), reports
//    its location every extent, inserts the throttle waits the SSM
//    requests, and releases pages at the SSM-advised priority.
//
// Both are *steppable*: Step() executes roughly one prefetch extent of
// work and returns the virtual time it consumed, so the deterministic
// multi-stream executor can interleave scans at extent granularity. Step
// cost is max(cpu, io) — sequential prefetch pipelines transfer time behind
// tuple processing, which is what makes CPU-bound queries insensitive to
// I/O savings (the paper's Q1 observation).

#pragma once

#include <memory>
#include <optional>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "exec/query.h"
#include "ssm/scan_sharing_manager.h"
#include "storage/catalog.h"

namespace scanshare::exec {

/// Everything a scan operator needs from its surroundings.
struct ScanEnv {
  buffer::BufferPool* pool = nullptr;
  const storage::TableInfo* table = nullptr;
  const CostModel* cost = nullptr;
  /// Disk cost model, used for duration estimates at SSM registration.
  const sim::DiskOptions* disk_options = nullptr;
  /// Null for baseline scans; set for shared scans.
  ssm::ScanSharingManager* ssm = nullptr;
  /// Borrowed event tracer (null = tracing disabled). Scan operators emit
  /// throttle-release events; the SSM/pool/disk emit the rest themselves.
  obs::Tracer* tracer = nullptr;
};

/// Steppable scan-aggregate cursor.
class ScanCursor {
 public:
  virtual ~ScanCursor() = default;

  /// Prepares the scan (binds and compiles predicate/aggregates, registers
  /// with the SSM for shared scans) at virtual time `now`.
  virtual Status Open(sim::Micros now) = 0;

  /// Executes the next unit of work at virtual time `now`; returns the
  /// virtual duration consumed and sets *done when the scan finished.
  virtual StatusOr<sim::Micros> Step(sim::Micros now, bool* done) = 0;

  /// Finalizes the scan (deregisters from the SSM) and returns the query
  /// output. Must be called exactly once, after Step reported done.
  virtual StatusOr<QueryOutput> Close(sim::Micros now) = 0;

  /// Counters accumulated so far.
  virtual const ScanMetrics& metrics() const = 0;

  /// Current scan position (the next page to process). Valid after Open.
  virtual sim::PageId position() const = 0;
};

/// Creates the baseline scan cursor for `query` (env.ssm ignored).
std::unique_ptr<ScanCursor> MakeTableScan(const ScanEnv& env, QuerySpec query);

/// Creates the sharing scan cursor for `query` (env.ssm must be set).
std::unique_ptr<ScanCursor> MakeSharedScan(const ScanEnv& env, QuerySpec query);

/// Computes the page range a query covers on its table (fraction bounds
/// rounded to extent boundaries; never empty for a non-empty table).
void ResolveScanRange(const storage::TableInfo& table, const QuerySpec& query,
                      uint64_t extent_pages, sim::PageId* first,
                      sim::PageId* end);

/// Estimated unthrottled duration of `query` under `cost` and the given
/// disk parameters — the "costing component" estimate the SSM registration
/// requires. Exposed for tests.
sim::Micros EstimateScanDuration(const storage::TableInfo& table,
                                 const QuerySpec& query, const CostModel& cost,
                                 const sim::DiskOptions& disk_options,
                                 uint64_t pages);

}  // namespace scanshare::exec
