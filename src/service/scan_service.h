// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The scan service: a service-style driver in front of the engine. Where
// StreamExecutor runs a FIXED set of streams to completion, the service
// faces an arrival PROCESS — jobs keep coming (open loop) or follow a
// client population (closed loop) — and an admission-control layer
// decides per arrival whether a job runs, waits in the bounded queue, or
// is shed. This is the regime the paper never evaluates (5 concurrent
// streams) but a production scan service lives in: thousands of scans,
// bursty arrivals, skewed table popularity (DESIGN.md §16).
//
// Execution stays a single-threaded discrete-event simulation: the service
// is a job source for the executor's one event loop, each admitted job a
// single-query scan stepped at extent granularity, with the tie rules of
// exec/event_heap.h. Same options => bit-identical JobRecords, admission
// counters and traces (arrival_determinism_test). Each run builds the same
// exec::EngineInstance as Database::Run, so it composes with every
// PolicyKind, both scan modes, and the push I/O pipeline.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "exec/engine.h"
#include "obs/trace.h"
#include "service/admission.h"
#include "service/arrival.h"
#include "service/latency.h"
#include "sim/virtual_clock.h"
#include "ssm/scan_sharing_manager.h"

namespace scanshare::service {

/// Everything a service run needs besides the tables.
struct ServiceOptions {
  ArrivalSpec arrival;
  WorkloadSpec workload;
  AdmissionOptions admission;
  /// Engine configuration (mode, policy, buffer geometry, SSM knobs,
  /// cost model, I/O pipeline, tracing).
  exec::RunConfig run;
  /// When > 0, run the full pool + SSM invariant audit every N job steps
  /// even outside SCANSHARE_AUDIT builds — the stress tests' "invariants
  /// clean throughout" lever at a tolerable cost. 0 = audits only at the
  /// end of the run (and per step in SCANSHARE_AUDIT builds).
  uint64_t audit_every_n_steps = 0;
};

/// One job's life, shed or completed.
struct JobRecord {
  uint64_t id = 0;          ///< Dense service-wide job id (trace actor).
  size_t table = 0;         ///< Index into the ServiceTable vector.
  size_t client = 0;        ///< Issuing client (closed loop).
  std::string query;        ///< Template name ("Q1", "R", "X1", ...).
  sim::Micros arrival = 0;
  bool shed = false;
  ShedReason shed_reason = ShedReason::kGlobalCap;  ///< Valid iff shed.
  bool from_queue = false;  ///< Waited in the admission queue first.
  sim::Micros admit_at = 0; ///< When it began running (!shed only).
  sim::Micros end = 0;      ///< Completion time (!shed only).
  exec::ScanMetrics metrics;
  exec::QueryOutput output;

  /// Queue wait (admission - arrival); 0 for shed jobs.
  sim::Micros QueueWait() const { return shed ? 0 : admit_at - arrival; }
  /// Sojourn (completion - arrival = queue wait + execution); 0 for shed.
  sim::Micros Sojourn() const { return shed ? 0 : end - arrival; }
};

/// Whole-run outcome.
struct ServiceResult {
  std::vector<JobRecord> jobs;  ///< In arrival order (id == index).
  AdmissionStats admission;
  LatencyRecorder::Snapshot sojourn;     ///< Over completed jobs.
  LatencyRecorder::Snapshot queue_wait;  ///< Over completed jobs.
  sim::Micros makespan = 0;  ///< Last completion (0 if nothing ran).
  uint64_t steps = 0;        ///< Cursor steps executed.
  sim::DiskStats disk;
  buffer::BufferPoolStats buffer;
  ssm::SsmStats ssm;  ///< Zero for baseline-mode runs.
  ssm::IsmStats ism;
  io::IoPipelineStats io;   ///< Push pipeline (zero in pull mode).
  io::RealIoStats real_io;  ///< File backend (zero for the sim backend).
  /// Event trace (null unless options.run.trace.enabled).
  std::shared_ptr<const obs::Tracer> trace;
};

/// Drives service runs over a Database's storage. The Database provides
/// the simulated machine, disk, and catalog (populate it once with
/// BuildServiceTables); each Run builds a fresh exec::EngineInstance, which
/// resets the clock and disk, exactly like Database::Run.
class ScanService {
 public:
  explicit ScanService(exec::Database* db) : db_(db) {}

  /// Runs the service to completion: every generated arrival is admitted,
  /// queued-then-admitted, or shed, and every admitted job runs to its
  /// end. `tables` must be the vector BuildServiceTables returned for
  /// this database's catalog.
  [[nodiscard]] StatusOr<ServiceResult> Run(
      const ServiceOptions& options, const std::vector<ServiceTable>& tables);

 private:
  exec::Database* db_;
};

}  // namespace scanshare::service
