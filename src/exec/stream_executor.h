// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Deterministic multi-stream execution. Streams are sequences of queries
// (the TPC-H throughput-run shape); the executor interleaves their scans at
// extent granularity by always advancing the stream with the smallest
// virtual ready-time. This replaces the paper's wall-clock concurrency
// with an exactly reproducible discrete-event schedule while preserving
// the phenomena under study: concurrent position drift, buffer-pool
// competition, and disk queueing between streams.
// Its event loop is the engine's only one: a JobSource feeds it the fixed
// streams of Run(streams) or the scan service's admitted arrivals.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/stats.h"
#include "common/status.h"
#include "exec/event_heap.h"
#include "exec/index_scan_ops.h"
#include "exec/query.h"
#include "exec/scan_ops.h"
#include "io/prefetcher.h"
#include "obs/trace.h"
#include "sim/env.h"
#include "ssm/index_scan_sharing_manager.h"
#include "ssm/scan_sharing_manager.h"
#include "storage/catalog.h"

namespace scanshare::exec {

/// One stream: an optional start delay (for staggered-start experiments)
/// followed by queries executed back to back.
struct StreamSpec {
  sim::Micros start_delay = 0;          ///< Virtual delay before query 1.
  sim::Micros inter_query_delay = 0;    ///< Think time between queries.
  std::vector<QuerySpec> queries;       ///< Executed in order.
};

/// One sampled (virtual time, scan position) point of a running scan —
/// the raw material of the paper's time/location plots.
struct LocationSample {
  sim::Micros time = 0;
  sim::PageId position = 0;
};

/// Outcome of one query execution.
struct QueryRecord {
  std::string name;         ///< Template name from the QuerySpec.
  size_t stream = 0;        ///< Stream index.
  size_t index = 0;         ///< Position within the stream.
  ScanMetrics metrics;      ///< Timing/counter breakdown.
  QueryOutput output;       ///< Aggregate results (for correctness checks).
  std::vector<LocationSample> trace;  ///< Filled iff trace recording is on.
};

/// Outcome of one stream.
struct StreamRecord {
  sim::Micros start = 0;    ///< When the first query began.
  sim::Micros end = 0;      ///< When the last query finished.
  std::vector<QueryRecord> queries;

  sim::Micros Elapsed() const { return end - start; }
};

/// Whole-run outcome: per-stream records plus system-level series/counters.
struct RunResult {
  std::vector<StreamRecord> streams;
  sim::Micros makespan = 0;             ///< End of the last stream.
  uint64_t steps = 0;                   ///< Cursor steps executed.
  sim::DiskStats disk;                  ///< Disk counters for the run.
  buffer::BufferPoolStats buffer;       ///< Pool counters for the run.
  ssm::SsmStats ssm;                    ///< SSM counters (zero for baseline).
  ssm::IsmStats ism;                    ///< ISM counters (index scans).
  TimeSeries reads_over_time{1};        ///< Pages read per time bucket (Fig 17).
  TimeSeries seeks_over_time{1};        ///< Seeks per time bucket (Fig 18).
  /// Event trace of the run (null unless tracing was enabled). Shared so
  /// RunResult stays copyable; the tracer itself is immutable once the run
  /// finishes.
  std::shared_ptr<const obs::Tracer> trace;
  /// Push I/O pipeline counters. All-zero unless the run attached a
  /// pipeline (RunConfig::io.prefetch_depth > 0).
  io::IoPipelineStats io;
  /// Real-file backend counters (pread/seek accounting against the table
  /// image). All-zero for the sim backend and for pull-mode runs.
  io::RealIoStats real_io;
};

/// Execution mode: whether the scans get a sharing manager (and
/// implicitly which buffer replacement policy the caller configured). The
/// scan operators are the same in both; the manager in their environment
/// switches sharing on.
enum class ScanMode {
  kBaseline,  ///< No manager: scans in isolation (vanilla engine).
  kShared,    ///< Scans attach the SSM (table) or the ISM (block index).
};

class StreamExecutor;

/// Where the executor's jobs come from. A job has a dense id from 0 and
/// runs queries back to back; hooks start jobs through the executor's
/// ScheduleOpen / Open. Tie rules: exec/event_heap.h.
class JobSource {
 public:
  virtual ~JobSource() = default;
  /// Called once before the first event, at the run's start time.
  [[nodiscard]] virtual Status Begin(sim::Micros, StreamExecutor*) {
    return Status::OK();
  }
  /// Time of the next pending arrival, if any.
  virtual std::optional<sim::Micros> NextArrival() { return std::nullopt; }
  /// Handles the arrival NextArrival() announced, at its time.
  [[nodiscard]] virtual Status Arrive(StreamExecutor*) { return Status::OK(); }
  /// Job `id`'s `index`-th query, about to open at `now`.
  virtual const QuerySpec& NextQuery(size_t id, size_t index,
                                     sim::Micros now) = 0;
  /// Runs after every cursor step; `step` counts from 1.
  [[nodiscard]] virtual Status AfterStep(uint64_t) { return Status::OK(); }
  /// Job `id`'s query closed at `end`; its cursor is already released.
  [[nodiscard]] virtual Status QueryDone(size_t id, sim::Micros end,
                                         QueryRecord record,
                                         StreamExecutor* executor) = 0;
};

/// Drives a set of streams to completion over one buffer pool.
class StreamExecutor {
 public:
  /// `ssm`/`ism` may be null iff `mode` is kBaseline (`ism` additionally
  /// only matters for workloads with index-scan queries). All pointers are
  /// borrowed. The KernelMode is unread: kept only for benchmark/layers.cc,
  /// which passes RunConfig::kernel here (see KernelMode).
  StreamExecutor(sim::Env* env, buffer::BufferPool* pool,
                 const storage::Catalog* catalog, ssm::ScanSharingManager* ssm,
                 ssm::IndexScanSharingManager* ism, const CostModel& cost,
                 ScanMode mode, KernelMode = KernelMode::kColumnar,
                 obs::Tracer* tracer = nullptr);

  /// Runs every stream to completion; the virtual clock starts at its
  /// current value. `series_bucket` sets the reads/seeks-over-time
  /// granularity; `record_traces` additionally samples every scan's
  /// position after each step into QueryRecord::trace (for the
  /// time/location plots). Returns the full run record.
  [[nodiscard]] StatusOr<RunResult> Run(const std::vector<StreamSpec>& streams,
                          sim::Micros series_bucket = sim::Seconds(1),
                          bool record_traces = false);

  /// Runs every job `source` starts to completion. Per-query records go
  /// to JobSource::QueryDone; RunResult::streams stays empty.
  [[nodiscard]] StatusOr<RunResult> Run(JobSource* source,
                                        sim::Micros series_bucket,
                                        bool record_traces);

  /// For JobSource hooks: job `id`'s next query opens at `at` as its own
  /// heap event keyed (at, id).
  void ScheduleOpen(size_t id, sim::Micros at) {
    JobAt(id).ready_at = at;
    events_.Push(at, id);
  }

  /// For JobSource hooks: job `id`'s next query opens at `at` (never before
  /// the clock) right away; its first step is due at `at`.
  [[nodiscard]] Status Open(size_t id, sim::Micros at);

  /// Attaches a borrowed push I/O prefetcher. The executor pumps it once
  /// after every cursor step (a fixed, deterministic schedule — the push
  /// pipeline's determinism contract depends on pumping only here), and
  /// folds its counters into RunResult::io / RunResult::real_io at the end
  /// of the run. Null (the default) skips both.
  void SetIoPipeline(io::Prefetcher* prefetcher) { prefetcher_ = prefetcher; }

  /// Attaches borrowed workers that run each scan's tuple kernel ahead of
  /// the event loop (exec/kernel_runahead.h). Every decision, and so every
  /// result, is the same with or without them. Null (the default) runs the
  /// kernel inline.
  void SetKernelWorkers(ThreadPool* workers) { kernel_workers_ = workers; }

 private:
  struct Job {
    std::unique_ptr<ScanCursor> cursor;  ///< Null between queries.
    sim::Micros ready_at = 0;
    size_t next_query = 0;
    std::vector<LocationSample> trace;
  };

  /// Created on first use; a deque keeps references valid as it grows.
  Job& JobAt(size_t id) {
    if (id >= jobs_.size()) jobs_.resize(id + 1);
    return jobs_[id];
  }

  [[nodiscard]] Status Step(size_t id);

  sim::Env* env_;
  buffer::BufferPool* pool_;
  const storage::Catalog* catalog_;
  ssm::ScanSharingManager* ssm_;
  ssm::IndexScanSharingManager* ism_;
  CostModel cost_;
  ScanMode mode_;
  obs::Tracer* tracer_;  // Borrowed; null when tracing is off.
  io::Prefetcher* prefetcher_ = nullptr;  // Borrowed; null in pull mode.
  ThreadPool* kernel_workers_ = nullptr;  // Borrowed; null runs inline.

  // State of the running Run(source): at most one heap event per job,
  // keyed (ready time, job id).
  JobSource* source_ = nullptr;
  bool record_traces_ = false;
  sim::Micros t0_ = 0;
  sim::Micros last_close_ = 0;
  sim::DiskStats last_;  // Disk counters at the previous step.
  std::deque<Job> jobs_;
  EventHeap events_;
  RunResult result_;
};

}  // namespace scanshare::exec
