#include "exec/scan_ops.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "exec/chunk_processor.h"

namespace scanshare::exec {

namespace {

/// Rounds `page` down to the extent grid.
sim::PageId AlignDown(sim::PageId page, uint64_t extent) {
  return page - (page % extent);
}

/// Work shared by both scan operators: range resolution, binding,
/// page-chunk processing with pipelined cost accounting.
class ScanOpBase : public ScanCursor {
 public:
  ScanOpBase(const ScanEnv& env, QuerySpec query)
      : env_(env), query_(std::move(query)) {}

  const ScanMetrics& metrics() const override { return metrics_; }

 protected:
  Status BindAll() {
    const storage::Schema& schema = env_.table->schema;
    SCANSHARE_RETURN_IF_ERROR(query_.predicate.Bind(schema));
    agg_ = std::make_unique<Aggregator>(query_.aggs, query_.group_by);
    SCANSHARE_RETURN_IF_ERROR(agg_->Bind(schema));
    ResolveScanRange(*env_.table, query_, env_.pool->prefetch_extent_pages(),
                     &range_first_, &range_end_);
    SCANSHARE_ASSIGN_OR_RETURN(
        chunks_, ChunkProcessor::Create(env_.pool, env_.table, env_.cost,
                                        query_, agg_.get(), &metrics_));
    return Status::OK();
  }

  /// Processes pages [first, end) starting at virtual time `now`, releasing
  /// each with `priority`. Returns elapsed virtual micros.
  StatusOr<sim::Micros> ProcessChunk(sim::PageId first, sim::PageId end,
                                     sim::Micros now,
                                     buffer::PagePriority priority) {
    return chunks_->ProcessRange(first, end, now, priority);
  }

  ScanEnv env_;
  QuerySpec query_;
  std::unique_ptr<Aggregator> agg_;
  std::optional<ChunkProcessor> chunks_;
  ScanMetrics metrics_;
  sim::PageId range_first_ = 0;
  sim::PageId range_end_ = 0;
  bool open_ = false;
  bool done_ = false;
  bool closed_ = false;
};

// ------------------------------------------------------------- TableScanOp

/// Baseline scan: front-to-back, Normal priority, no SSM interaction.
class TableScanOp final : public ScanOpBase {
 public:
  using ScanOpBase::ScanOpBase;

  Status Open(sim::Micros now) override {
    if (open_) return Status::FailedPrecondition("TableScanOp: already open");
    SCANSHARE_RETURN_IF_ERROR(BindAll());
    cursor_ = range_first_;
    metrics_.start_time = now;
    open_ = true;
    return Status::OK();
  }

  StatusOr<sim::Micros> Step(sim::Micros now, bool* done) override {
    if (!open_ || closed_) {
      return Status::FailedPrecondition("TableScanOp: not open");
    }
    if (done_) {
      *done = true;
      return static_cast<sim::Micros>(0);
    }
    const uint64_t extent = env_.pool->prefetch_extent_pages();
    const sim::PageId chunk_end =
        std::min<sim::PageId>(AlignDown(cursor_, extent) + extent, range_end_);
    SCANSHARE_ASSIGN_OR_RETURN(
        sim::Micros elapsed,
        ProcessChunk(cursor_, chunk_end, now, buffer::PagePriority::kNormal));
    cursor_ = chunk_end;
    if (cursor_ >= range_end_) {
      done_ = true;
      metrics_.end_time = now + elapsed;
    }
    *done = done_;
    return elapsed;
  }

  StatusOr<QueryOutput> Close(sim::Micros now) override {
    if (!done_) return Status::FailedPrecondition("TableScanOp: not finished");
    if (closed_) return Status::FailedPrecondition("TableScanOp: already closed");
    closed_ = true;
    if (metrics_.end_time == 0) metrics_.end_time = now;
    return agg_->Finish(metrics_.tuples_scanned);
  }

  sim::PageId position() const override { return cursor_; }

 private:
  sim::PageId cursor_ = 0;
};

// ------------------------------------------------------------ SharedScanOp

/// The paper's sharing scan: SSM-placed wrap-around traversal with
/// per-extent location updates, throttle waits, and advised priorities.
class SharedScanOp final : public ScanOpBase {
 public:
  using ScanOpBase::ScanOpBase;

  Status Open(sim::Micros now) override {
    if (open_) return Status::FailedPrecondition("SharedScanOp: already open");
    if (env_.ssm == nullptr) {
      return Status::InvalidArgument("SharedScanOp: no ScanSharingManager");
    }
    SCANSHARE_RETURN_IF_ERROR(BindAll());

    ssm::ScanDescriptor desc;
    desc.table_id = env_.table->id;
    desc.table_first = env_.table->first_page;
    desc.table_end = env_.table->end_page();
    desc.range_first = range_first_;
    desc.range_end = range_end_;
    desc.estimated_pages = range_end_ - range_first_;
    desc.estimated_duration = EstimateScanDuration(
        *env_.table, query_, *env_.cost,
        env_.disk_options != nullptr ? *env_.disk_options : sim::DiskOptions(),
        desc.estimated_pages);
    desc.throttle_tolerance = query_.throttle_tolerance;

    SCANSHARE_ASSIGN_OR_RETURN(ssm::StartInfo start, env_.ssm->StartScan(desc, now));
    metrics_.overhead += SsmCallCost();
    scan_id_ = start.id;
    start_page_ = start.start_page;
    cursor_ = start_page_;
    phase2_ = false;
    metrics_.start_time = now;
    open_ = true;
    return Status::OK();
  }

  StatusOr<sim::Micros> Step(sim::Micros now, bool* done) override {
    if (!open_ || closed_) {
      return Status::FailedPrecondition("SharedScanOp: not open");
    }
    if (done_) {
      *done = true;
      return static_cast<sim::Micros>(0);
    }
    const uint64_t extent = env_.pool->prefetch_extent_pages();
    const sim::PageId segment_end = phase2_ ? start_page_ : range_end_;
    const sim::PageId chunk_end =
        std::min<sim::PageId>(AlignDown(cursor_, extent) + extent, segment_end);

    // Report the location *before* the chunk (paper Fig. 3: update the
    // ISM, then release pages with the freshly advised ISM.pr()). Role
    // assignment must reflect the pages this scan is about to read:
    // releasing fresh pages under a stale "trailer" role would mark them
    // Low and have them evicted before the group members behind can read
    // them — exactly the thrash the fresh call avoids.
    SCANSHARE_ASSIGN_OR_RETURN(
        ssm::UpdateResult update,
        env_.ssm->UpdateLocation(scan_id_, cursor_, metrics_.pages_scanned, now));
    metrics_.overhead += SsmCallCost();
    sim::Micros elapsed = SsmCallCost();
    priority_ = update.priority;
    if (update.wait > 0) {
      // Throttle wait inserted inside the update call (the scan just sees
      // a slow call), postponing the read-ahead that widens the group.
      metrics_.throttle_wait += update.wait;
      elapsed += update.wait;
      // The wait ends when the update call returns: release is stamped at
      // the insert's far edge so insert/release pair up in the timeline.
      SCANSHARE_TRACE_EVENT(env_.tracer, obs::EventKind::kThrottleRelease,
                            now + elapsed, scan_id_, update.wait);
    }

    SCANSHARE_ASSIGN_OR_RETURN(
        sim::Micros chunk_cost,
        ProcessChunk(cursor_, chunk_end, now + elapsed, priority_));
    elapsed += chunk_cost;
    cursor_ = chunk_end;

    // Segment / scan termination. Phase 2 covers [range_first, start_page).
    if (!phase2_ && cursor_ >= range_end_) {
      phase2_ = true;
      cursor_ = range_first_;
    }
    const bool finished =
        phase2_ && (cursor_ >= start_page_ || start_page_ == range_first_);

    if (finished) {
      done_ = true;
      metrics_.end_time = now + elapsed;
      SCANSHARE_RETURN_IF_ERROR(env_.ssm->EndScan(scan_id_, metrics_.end_time));
      metrics_.overhead += SsmCallCost();
      elapsed += SsmCallCost();
    }
    *done = done_;
    return elapsed;
  }

  StatusOr<QueryOutput> Close(sim::Micros now) override {
    if (!done_) return Status::FailedPrecondition("SharedScanOp: not finished");
    if (closed_) return Status::FailedPrecondition("SharedScanOp: already closed");
    closed_ = true;
    if (metrics_.end_time == 0) metrics_.end_time = now;
    return agg_->Finish(metrics_.tuples_scanned);
  }

  sim::PageId position() const override { return cursor_; }

 private:
  sim::Micros SsmCallCost() const {
    return static_cast<sim::Micros>(std::llround(env_.cost->ssm_call_us));
  }

  ssm::ScanId scan_id_ = ssm::kInvalidScanId;
  sim::PageId start_page_ = 0;
  sim::PageId cursor_ = 0;
  bool phase2_ = false;
  buffer::PagePriority priority_ = buffer::PagePriority::kNormal;
};

}  // namespace

void ResolveScanRange(const storage::TableInfo& table, const QuerySpec& query,
                      uint64_t extent_pages, sim::PageId* first,
                      sim::PageId* end) {
  const uint64_t n = table.num_pages;
  const double lo = std::clamp(query.range_start_frac, 0.0, 1.0);
  const double hi = std::clamp(query.range_end_frac, lo, 1.0);
  uint64_t first_off = static_cast<uint64_t>(lo * static_cast<double>(n));
  uint64_t end_off = static_cast<uint64_t>(std::ceil(hi * static_cast<double>(n)));
  // Snap to extent boundaries so placement/prefetch align.
  if (extent_pages > 0) {
    first_off -= first_off % extent_pages;
    const uint64_t rem = end_off % extent_pages;
    if (rem != 0) end_off += extent_pages - rem;
  }
  end_off = std::min(end_off, n);
  if (end_off <= first_off) end_off = std::min(first_off + 1, n);
  if (first_off >= n) first_off = n - 1;
  *first = table.first_page + first_off;
  *end = table.first_page + end_off;
}

sim::Micros EstimateScanDuration(const storage::TableInfo& table,
                                 const QuerySpec& query, const CostModel& cost,
                                 const sim::DiskOptions& disk_options,
                                 uint64_t pages) {
  const double tuples_per_page =
      table.num_pages > 0
          ? static_cast<double>(table.num_tuples) / static_cast<double>(table.num_pages)
          : 0.0;
  const double per_tuple_ns =
      cost.tuple_base_ns +
      static_cast<double>(query.predicate.size()) * cost.predicate_atom_ns +
      query.per_tuple_extra_ns +
      static_cast<double>(query.aggs.size()) * cost.agg_ns;
  const double cpu_per_page_us =
      cost.page_cpu_us + tuples_per_page * per_tuple_ns / 1000.0;
  const double io_per_page_us =
      static_cast<double>(disk_options.transfer_micros_per_page) +
      static_cast<double>(disk_options.seek_micros) / 16.0;  // Amortized seek.
  const double per_page_us = std::max(cpu_per_page_us, io_per_page_us);
  return static_cast<sim::Micros>(
      std::llround(per_page_us * static_cast<double>(pages)));
}

std::unique_ptr<ScanCursor> MakeTableScan(const ScanEnv& env, QuerySpec query) {
  return std::make_unique<TableScanOp>(env, std::move(query));
}

std::unique_ptr<ScanCursor> MakeSharedScan(const ScanEnv& env, QuerySpec query) {
  return std::make_unique<SharedScanOp>(env, std::move(query));
}

}  // namespace scanshare::exec
