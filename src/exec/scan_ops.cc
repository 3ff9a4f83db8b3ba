#include "exec/scan_ops.h"

#include <algorithm>
#include <cmath>

namespace scanshare::exec {

namespace {

/// Rounds `page` down to the extent grid.
sim::PageId AlignDown(sim::PageId page, uint64_t extent) {
  return page - (page % extent);
}

/// The table scan: front-to-back at Normal priority without an SSM; with
/// one, an SSM-placed wrap-around traversal with per-extent location
/// updates, throttle waits and advised priorities.
class TableScanOp final : public ScanCursor {
 public:
  TableScanOp(const ScanEnv& env, QuerySpec query)
      : ScanCursor(env, std::move(query)) {}

  sim::PageId position() const override { return cursor_; }

 private:
  Status Start(sim::Micros now) override {
    SCANSHARE_RETURN_IF_ERROR(Bind());
    ResolveScanRange(*env_.table, query_, env_.pool->prefetch_extent_pages(),
                     &range_first_, &range_end_);
    start_page_ = range_first_;
    if (env_.ssm != nullptr) {
      SCANSHARE_ASSIGN_OR_RETURN(
          ssm::StartInfo start,
          env_.ssm->StartScan(
              DescribeTableScan(*env_.table, query_, range_first_, range_end_,
                                *env_.cost, disk_options()),
              now));
      ChargeManagerCall();
      scan_id_ = start.id;
      start_page_ = start.start_page;
    }
    cursor_ = start_page_;
    chunks_->StartWalk(ScanWalk::Range(range_first_, range_end_, start_page_),
                       env_.kernel_workers);
    return Status::OK();
  }

  StatusOr<sim::Micros> Advance(sim::Micros now) override {
    const uint64_t extent = env_.pool->prefetch_extent_pages();
    const sim::PageId segment_end = wrapped_ ? start_page_ : range_end_;
    const sim::PageId chunk_end =
        std::min<sim::PageId>(AlignDown(cursor_, extent) + extent, segment_end);

    sim::Micros elapsed = 0;
    buffer::PagePriority priority = buffer::PagePriority::kNormal;
    if (env_.ssm != nullptr) {
      // Report the location *before* the chunk (paper Fig. 3: update the
      // ISM, then release pages with the freshly advised ISM.pr()). Role
      // assignment must reflect the pages this scan is about to read:
      // releasing fresh pages under a stale "trailer" role would mark them
      // Low and have them evicted before the group members behind can read
      // them — exactly the thrash the fresh call avoids.
      SCANSHARE_ASSIGN_OR_RETURN(
          ssm::UpdateResult update,
          env_.ssm->UpdateLocation(scan_id_, cursor_, metrics_.pages_scanned,
                                   now));
      // A throttle wait is inserted inside the update call (the scan just
      // sees a slow call), postponing the read-ahead that widens the group.
      elapsed = ChargeManagerCall(update.wait);
      priority = update.priority;
      if (update.wait > 0) {
        // The wait ends when the update call returns: release is stamped
        // at the insert's far edge so insert/release pair up in the
        // timeline.
        SCANSHARE_TRACE_EVENT(env_.tracer, obs::EventKind::kThrottleRelease,
                              now + elapsed, scan_id_, update.wait);
      }
    }

    SCANSHARE_ASSIGN_OR_RETURN(
        sim::Micros chunk_cost,
        chunks_->ProcessRange(cursor_, chunk_end, now + elapsed, priority));
    elapsed += chunk_cost;
    cursor_ = chunk_end;

    // A sharing scan wraps at the range end, even when it started at the
    // range begin; its second segment covers [range_first, start_page).
    if (!wrapped_ && cursor_ >= range_end_ && env_.ssm != nullptr) {
      wrapped_ = true;
      cursor_ = range_first_;
    }
    if (wrapped_ ? cursor_ >= start_page_ : cursor_ >= range_end_) {
      done_ = true;
      metrics_.end_time = now + elapsed;
      if (env_.ssm != nullptr) {
        SCANSHARE_RETURN_IF_ERROR(
            env_.ssm->EndScan(scan_id_, metrics_.end_time));
        elapsed += ChargeManagerCall();
      }
    }
    return elapsed;
  }

  sim::PageId range_first_ = 0;
  sim::PageId range_end_ = 0;
  ssm::ScanId scan_id_ = ssm::kInvalidScanId;
  sim::PageId start_page_ = 0;
  sim::PageId cursor_ = 0;
  bool wrapped_ = false;
};

}  // namespace

Status ScanCursor::Open(sim::Micros now) {
  if (open_) return Status::FailedPrecondition("scan: already open");
  SCANSHARE_RETURN_IF_ERROR(Start(now));
  metrics_.start_time = now;
  if (done_) metrics_.end_time = now;
  open_ = true;
  return Status::OK();
}

StatusOr<sim::Micros> ScanCursor::Step(sim::Micros now, bool* done) {
  if (!open_ || closed_) return Status::FailedPrecondition("scan: not open");
  if (done_) {
    *done = true;
    return static_cast<sim::Micros>(0);
  }
  SCANSHARE_ASSIGN_OR_RETURN(sim::Micros elapsed, Advance(now));
  *done = done_;
  return elapsed;
}

StatusOr<QueryOutput> ScanCursor::Close(sim::Micros now) {
  if (!done_) return Status::FailedPrecondition("scan: not finished");
  if (closed_) return Status::FailedPrecondition("scan: already closed");
  closed_ = true;
  if (metrics_.end_time == 0) metrics_.end_time = now;
  return agg_->Finish(metrics_.tuples_scanned);
}

Status ScanCursor::Bind() {
  const storage::Schema& schema = env_.table->schema;
  SCANSHARE_RETURN_IF_ERROR(query_.predicate.Bind(schema));
  agg_ = std::make_unique<Aggregator>(query_.aggs, query_.group_by);
  SCANSHARE_RETURN_IF_ERROR(agg_->Bind(schema));
  SCANSHARE_ASSIGN_OR_RETURN(
      ChunkProcessor chunks,
      ChunkProcessor::Create(env_.pool, env_.table, env_.cost, query_,
                             agg_.get(), &metrics_));
  chunks_.emplace(std::move(chunks));
  return Status::OK();
}

sim::Micros ScanCursor::ChargeManagerCall(sim::Micros wait) {
  const auto call = static_cast<sim::Micros>(std::llround(env_.cost->ssm_call_us));
  metrics_.overhead += call;
  metrics_.throttle_wait += wait;
  return call + wait;
}

const sim::DiskOptions& ScanCursor::disk_options() const {
  static const sim::DiskOptions kDefaults;
  return env_.disk_options != nullptr ? *env_.disk_options : kDefaults;
}

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

ssm::ScanDescriptor DescribeTableScan(const storage::TableInfo& table,
                                      const QuerySpec& query,
                                      sim::PageId range_first,
                                      sim::PageId range_end,
                                      const CostModel& cost,
                                      const sim::DiskOptions& disk_options) {
  ssm::ScanDescriptor desc;
  desc.table_id = table.id;
  desc.table_first = table.first_page;
  desc.table_end = table.end_page();
  desc.range_first = range_first;
  desc.range_end = range_end;
  desc.estimated_pages = range_end - range_first;
  desc.estimated_duration = EstimateScanDuration(table, query, cost,
                                                 disk_options,
                                                 desc.estimated_pages);
  desc.throttle_tolerance = query.throttle_tolerance;
  return desc;
}

std::unique_ptr<ScanCursor> MakeTableScan(const ScanEnv& env, QuerySpec query) {
  return std::make_unique<TableScanOp>(env, std::move(query));
}

}  // namespace scanshare::exec
