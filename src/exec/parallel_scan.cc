// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.

#include "exec/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "exec/chunk_processor.h"
#include "exec/scan_ops.h"

namespace scanshare::exec {

StatusOr<ParallelQueryResult> RunQueryParallel(Database* db,
                                               const RunConfig& config,
                                               const QuerySpec& query,
                                               const ParallelScanOptions& options) {
  if (query.access != AccessPath::kTableScan) {
    return Status::NotSupported(
        "RunQueryParallel: only table scans are morsel-parallel");
  }
  SCANSHARE_ASSIGN_OR_RETURN(const storage::TableInfo* table,
                             db->catalog()->GetTable(query.table));

  const size_t jobs =
      options.jobs > 0 ? options.jobs : ThreadPool::HardwareConcurrency();
  const uint64_t extent = std::max<uint64_t>(1, config.buffer.prefetch_extent_pages);
  const uint64_t morsel_pages = std::max<uint64_t>(1, options.morsel_extents) * extent;

  // The morsel driver never pumps (DESIGN.md §15.2): a push or file
  // configuration would silently run as pull-sim.
  if (config.io.prefetch_depth > 0 ||
      config.io.backend == IoOptions::Backend::kFile) {
    return Status::InvalidArgument(
        "RunQueryParallel: the push I/O pipeline is not supported "
        "(RunConfig::io must stay default)");
  }

  // The engine core with a concurrent-mode tracer (workers emit through the
  // pool, the SSM and the disk); each partition gets its own replacer.
  RunConfig engine_config = config;
  engine_config.trace.concurrent = true;
  SCANSHARE_ASSIGN_OR_RETURN(
      std::unique_ptr<EngineInstance> engine,
      EngineInstance::Create(db, engine_config, EngineInstance::Pool::kNone));
  buffer::PartitionedBufferPoolOptions pool_options;
  pool_options.partitions = options.partitions > 0 ? options.partitions : jobs;
  pool_options.pool = config.buffer;
  buffer::PartitionedBufferPool pool(
      db->disk_manager(),
      [&engine](size_t frames) { return engine->MakeReplacer(frames); },
      pool_options);
  if (engine->tracer() != nullptr) pool.SetTracer(engine->tracer());
  ssm::ScanSharingManager* ssm = engine->ssm();  // Null in baseline mode.
  const bool use_ssm = ssm != nullptr;

  // Bind the query once; workers share the bound predicate (const reads)
  // and copy the bound aggregator (copies reset compiled state, so each
  // worker compiles its own kernel before its first morsel).
  QuerySpec spec = query;
  const storage::Schema& schema = table->schema;
  SCANSHARE_RETURN_IF_ERROR(spec.predicate.Bind(schema));
  Aggregator prototype(spec.aggs, spec.group_by);
  SCANSHARE_RETURN_IF_ERROR(prototype.Bind(schema));

  sim::PageId range_first = 0;
  sim::PageId range_end = 0;
  ResolveScanRange(*table, spec, extent, &range_first, &range_end);
  const uint64_t range_pages = range_end - range_first;
  const uint64_t num_morsels = (range_pages + morsel_pages - 1) / morsel_pages;

  // Virtual "time" under parallelism is a shared monotonic tick: it keeps
  // the disk model and SSM speed windows ordered, but carries no duration
  // semantics (DESIGN.md §12 — timing experiments stay on Database::Run).
  std::atomic<sim::Micros> ticks{1};

  // SSM registration: the whole parallel scan is ONE scan to the manager
  // (workers are its internal parallelism). Placement picks the rotation
  // start; morsels are walked from there so the group-locality behaviour
  // is preserved at morsel granularity.
  ssm::ScanId scan_id = ssm::kInvalidScanId;
  sim::PageId start_page = range_first;
  if (use_ssm) {
    ssm::ScanDescriptor desc;
    desc.table_id = table->id;
    desc.table_first = table->first_page;
    desc.table_end = table->end_page();
    desc.range_first = range_first;
    desc.range_end = range_end;
    desc.estimated_pages = range_pages;
    desc.estimated_duration = EstimateScanDuration(
        *table, spec, config.cost, db->env()->disk().options(), range_pages);
    desc.throttle_tolerance = spec.throttle_tolerance;
    SCANSHARE_ASSIGN_OR_RETURN(ssm::StartInfo info,
                               ssm->StartScan(desc, ticks.fetch_add(1)));
    scan_id = info.id;
    start_page = info.start_page;
  }
  const uint64_t start_index = num_morsels > 0
                                   ? ((start_page - range_first) / morsel_pages) %
                                         num_morsels
                                   : 0;

  // Per-morsel partials, indexed canonically. Workers write disjoint
  // slots; the merge below reads them after the ParallelFor barrier.
  std::vector<AggPartial> partials(num_morsels);
  std::vector<ScanMetrics> worker_metrics(jobs);
  std::atomic<uint64_t> next_pull{0};
  std::atomic<uint64_t> pages_reported{0};
  std::atomic<bool> failed{false};
  // Driver-side error latch: a leaf like the thread-pool queue lock —
  // never held while an engine lock is taken (the guarded block below
  // only compares and copies).
  Mutex error_mu SCANSHARE_ACQUIRED_AFTER(lock_order::kDriver);
  uint64_t error_index SCANSHARE_GUARDED_BY(error_mu) =
      num_morsels;  // Lowest failing canonical index.
  Status error_status SCANSHARE_GUARDED_BY(error_mu) = Status::OK();
  auto fail = [&](uint64_t index, Status status) {
    MutexLock lock(error_mu);
    if (error_status.ok() || index < error_index) {
      error_index = index;
      error_status = std::move(status);
    }
    failed.store(true, std::memory_order_relaxed);
  };

  auto worker = [&](size_t w) {
    Aggregator agg = prototype;
    StatusOr<ChunkProcessor> chunks = ChunkProcessor::Create(
        &pool, table, &config.cost, spec, &agg, &worker_metrics[w]);
    if (!chunks.ok()) {
      // Deterministic, so every worker fails alike before its first morsel.
      fail(0, chunks.status());
      return;
    }
    for (uint64_t pull = next_pull.fetch_add(1); pull < num_morsels;
         pull = next_pull.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) return;
      const uint64_t index = (start_index + pull) % num_morsels;
      const sim::PageId first = range_first + index * morsel_pages;
      const sim::PageId end =
          std::min<sim::PageId>(first + morsel_pages, range_end);
      buffer::PagePriority priority = buffer::PagePriority::kNormal;
      if (use_ssm) {
        auto advised = ssm->AdvisePriority(scan_id);
        if (advised.ok()) priority = *advised;
      }
      const sim::Micros now = ticks.fetch_add(1);
      auto elapsed = chunks->ProcessRange(first, end, now, priority);
      if (!elapsed.ok()) {
        fail(index, elapsed.status());
        return;
      }
      partials[index] = agg.DrainPartial();
      if (use_ssm) {
        const uint64_t done =
            pages_reported.fetch_add(end - first) + (end - first);
        // Report the wrap-aware position the sequential shared scan would:
        // past the range end means back to the range start.
        const sim::PageId position = end >= range_end ? range_first : end;
        auto update =
            ssm->UpdateLocation(scan_id, position, done, ticks.fetch_add(1));
        if (update.ok() && update->wait > 0) {
          worker_metrics[w].throttle_wait += update->wait;
        }
      }
    }
  };

  {
    ThreadPool workers(jobs);
    workers.ParallelFor(jobs, worker);
  }

  const sim::Micros close_tick = ticks.fetch_add(1);
  if (use_ssm) {
    SCANSHARE_RETURN_IF_ERROR(ssm->EndScan(scan_id, close_tick));
  }
  if (failed.load()) {
    // Workers are joined; the lock is uncontended and only held so the
    // guarded status is read with its capability.
    MutexLock lock(error_mu);
    return error_status;
  }

  // Deterministic merge: canonical (ascending page) order, independent of
  // which worker produced which partial and of the rotation start.
  Aggregator merged = prototype;
  ParallelQueryResult result;
  for (const ScanMetrics& m : worker_metrics) {
    result.metrics.pages_scanned += m.pages_scanned;
    result.metrics.tuples_scanned += m.tuples_scanned;
    result.metrics.tuples_matched += m.tuples_matched;
    result.metrics.buffer_hits += m.buffer_hits;
    result.metrics.buffer_misses += m.buffer_misses;
    result.metrics.cpu += m.cpu;
    result.metrics.io_stall += m.io_stall;
    result.metrics.throttle_wait += m.throttle_wait;
    result.metrics.overhead += m.overhead;
  }
  result.metrics.start_time = 0;
  result.metrics.end_time = close_tick;
  for (const AggPartial& partial : partials) {
    merged.AbsorbPartial(partial);
  }
  result.output = merged.Finish(result.metrics.tuples_scanned);

  SCANSHARE_RETURN_IF_ERROR(pool.CheckInvariants());
  if (use_ssm) {
    SCANSHARE_RETURN_IF_ERROR(ssm->CheckInvariants());
  }
  result.buffer = pool.stats();
  if (use_ssm) result.ssm = ssm->stats();
  result.jobs = jobs;
  result.partitions = pool.partitions();
  result.morsels = num_morsels;
  result.trace = engine->trace();
  return result;
}

}  // namespace scanshare::exec
