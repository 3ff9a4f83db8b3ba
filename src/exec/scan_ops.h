// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The table scan operator under study. Its sharing role is switched on by
// the manager in its environment:
//
//  * without a Scan Sharing Manager it is the baseline TSCAN: it scans its
//    range front-to-back, releases pages at Normal priority, and knows
//    nothing about other scans;
//  * with one it is the paper's sharing scan (the table-scan SISCAN
//    analogue): it asks the SSM where to start, scans [startLoc,
//    range_end) then wraps to [range_first, startLoc), reports its
//    location every extent, inserts the throttle waits the SSM requests,
//    and releases pages at the SSM-advised priority.
//
// Sharing adds three SSM calls to the scan: StartScan, UpdateLocation
// (whose answer carries the wait and the release priority) and EndScan.
// ScanCursor holds everything else, and the block-index scan
// (exec/index_scan_ops.h) derives from it too.
//
// Scans are *steppable*: Step() executes roughly one prefetch extent of
// work and returns the virtual time it consumed, so the deterministic
// multi-stream executor can interleave scans at extent granularity. Step
// cost is max(cpu, io) — sequential prefetch pipelines transfer time behind
// tuple processing, which is what makes CPU-bound queries insensitive to
// I/O savings (the paper's Q1 observation).

#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "exec/chunk_processor.h"
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
  /// Set, it makes a table scan a sharing scan; null for baseline scans.
  ssm::ScanSharingManager* ssm = nullptr;
  /// Borrowed event tracer (null = tracing disabled). Scan operators emit
  /// throttle-release events; the SSM/pool/disk emit the rest themselves.
  obs::Tracer* tracer = nullptr;
  /// Borrowed workers that run the scan's kernel ahead of the event loop
  /// (exec/kernel_runahead.h); null runs it inline.
  ThreadPool* kernel_workers = nullptr;
};

/// Steppable scan-aggregate cursor. It holds what the table scan and the
/// block-index scan share: the bind of predicate, aggregator and
/// ChunkProcessor, the lifecycle checks, Close and metrics(). Each access
/// path fixes its walk at the end of Start, once placed, and steps along it
/// in Advance; it wraps around only when a manager is attached.
class ScanCursor {
 public:
  virtual ~ScanCursor() = default;

  /// Prepares the scan (binds and compiles predicate/aggregates, registers
  /// with the manager for sharing scans) at virtual time `now`.
  Status Open(sim::Micros now);

  /// Executes the next unit of work at virtual time `now`; returns the
  /// virtual duration consumed and sets *done when the scan finished.
  StatusOr<sim::Micros> Step(sim::Micros now, bool* done);

  /// Finalizes the scan and returns the query output. Must be called
  /// exactly once, after Step reported done.
  StatusOr<QueryOutput> Close(sim::Micros now);

  /// Counters accumulated so far.
  const ScanMetrics& metrics() const { return metrics_; }

  /// Current scan position (the first page of the next unit to process).
  /// Valid after Open. Once the scan is done, a table scan without an SSM
  /// sits at its range end and a sharing table scan at its start page
  /// (the range begin if it started there). An index scan without an ISM
  /// sits on its last block, and a sharing index scan on the block it
  /// started at (its first block if it started at the range begin).
  virtual sim::PageId position() const = 0;

 protected:
  ScanCursor(const ScanEnv& env, QuerySpec query)
      : env_(env), query_(std::move(query)) {}

  /// Resolves the range, calls Bind, registers with the manager if one is
  /// attached, at `now`, and starts the ChunkProcessor's walk. Sets done_
  /// if there is nothing to scan.
  virtual Status Start(sim::Micros now) = 0;

  /// Processes the next extent or block at `now` and returns the virtual
  /// time it took. The step that completes the walk sets done_ and
  /// metrics_.end_time and deregisters from the manager.
  virtual StatusOr<sim::Micros> Advance(sim::Micros now) = 0;

  /// Binds the predicate and aggregator to the table's schema and compiles
  /// the ChunkProcessor.
  Status Bind();

  /// Charges one manager call plus the throttle `wait` it inserted to the
  /// scan's metrics and returns their virtual duration.
  sim::Micros ChargeManagerCall(sim::Micros wait = 0);

  /// The disk cost model for duration estimates (defaults if unset).
  const sim::DiskOptions& disk_options() const;

  ScanEnv env_;
  QuerySpec query_;
  std::unique_ptr<Aggregator> agg_;
  std::optional<ChunkProcessor> chunks_;
  ScanMetrics metrics_;
  bool done_ = false;

 private:
  bool open_ = false;
  bool closed_ = false;
};

/// Creates the table scan cursor for `query`: a sharing scan if env.ssm is
/// set, the baseline scan otherwise.
std::unique_ptr<ScanCursor> MakeTableScan(const ScanEnv& env, QuerySpec query);

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

/// What a scan of `query` over pages [range_first, range_end) of `table`
/// declares when it registers with the SSM, its duration estimated under
/// `cost` and `disk_options`.
ssm::ScanDescriptor DescribeTableScan(const storage::TableInfo& table,
                                      const QuerySpec& query,
                                      sim::PageId range_first,
                                      sim::PageId range_end,
                                      const CostModel& cost,
                                      const sim::DiskOptions& disk_options);

}  // namespace scanshare::exec
