#include "exec/index_scan_ops.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "exec/chunk_processor.h"

namespace scanshare::exec {

namespace {

/// Shared machinery: range resolution, block sequence construction, and
/// per-block page processing.
class IndexScanBase : public ScanCursor {
 public:
  IndexScanBase(const IndexScanEnv& env, QuerySpec query)
      : env_(env), query_(std::move(query)) {}

  const ScanMetrics& metrics() const override { return metrics_; }

  sim::PageId position() const override {
    if (sequence_.empty()) return env_.base.table->first_page;
    const size_t idx = std::min(current_, sequence_.size() - 1);
    return BlockFirstPage(sequence_[idx]);
  }

 protected:
  Status BindAll() {
    if (query_.access != AccessPath::kIndexScan) {
      return Status::InvalidArgument("index scan: query access path mismatch");
    }
    if (env_.index == nullptr) {
      return Status::InvalidArgument("index scan: no block index");
    }
    const storage::Schema& schema = env_.base.table->schema;
    SCANSHARE_RETURN_IF_ERROR(query_.predicate.Bind(schema));
    agg_ = std::make_unique<Aggregator>(query_.aggs, query_.group_by);
    SCANSHARE_RETURN_IF_ERROR(agg_->Bind(schema));
    SCANSHARE_ASSIGN_OR_RETURN(
        chunks_,
        ChunkProcessor::Create(env_.base.pool, env_.base.table, env_.base.cost,
                               query_, agg_.get(), &metrics_));

    ResolveIndexRange(*env_.index, query_, &key_lo_, &key_hi_);
    sequence_ = env_.index->BlockSequence(key_lo_, key_hi_);
    locations_.clear();
    locations_.reserve(sequence_.size());
    for (int64_t key = key_lo_; key <= key_hi_; ++key) {
      const auto& bids = env_.index->BlocksFor(key);
      for (uint32_t pos = 0; pos < bids.size(); ++pos) {
        locations_.push_back(
            ssm::IndexScanLocation{key, pos});
      }
    }
    return Status::OK();
  }

  sim::PageId BlockFirstPage(storage::BlockId bid) const {
    return env_.base.table->first_page +
           static_cast<sim::PageId>(bid) * env_.index->block_pages();
  }

  /// Processes the pages of the block at sequence position `idx`.
  StatusOr<sim::Micros> ProcessBlock(size_t idx, sim::Micros now,
                                     buffer::PagePriority priority) {
    const sim::PageId first = BlockFirstPage(sequence_[idx]);
    const sim::PageId end = std::min<sim::PageId>(
        first + env_.index->block_pages(), env_.base.table->end_page());
    ++blocks_done_;
    return chunks_->ProcessRange(first, end, now, priority);
  }

  IndexScanEnv env_;
  QuerySpec query_;
  std::unique_ptr<Aggregator> agg_;
  std::optional<ChunkProcessor> chunks_;
  ScanMetrics metrics_;
  int64_t key_lo_ = 0;
  int64_t key_hi_ = 0;
  std::vector<storage::BlockId> sequence_;         ///< Traversal order.
  std::vector<ssm::IndexScanLocation> locations_;  ///< Parallel to sequence_.
  size_t current_ = 0;   ///< Next sequence position to process.
  uint64_t blocks_done_ = 0;
  bool open_ = false;
  bool done_ = false;
  bool closed_ = false;
};

// ------------------------------------------------------------- IndexScanOp

/// Baseline IXSCAN: keys in order, blocks in BID order, Normal releases.
class IndexScanOp final : public IndexScanBase {
 public:
  using IndexScanBase::IndexScanBase;

  Status Open(sim::Micros now) override {
    if (open_) return Status::FailedPrecondition("IndexScanOp: already open");
    SCANSHARE_RETURN_IF_ERROR(BindAll());
    metrics_.start_time = now;
    done_ = sequence_.empty();
    if (done_) metrics_.end_time = now;
    open_ = true;
    return Status::OK();
  }

  StatusOr<sim::Micros> Step(sim::Micros now, bool* done) override {
    if (!open_ || closed_) {
      return Status::FailedPrecondition("IndexScanOp: not open");
    }
    if (done_) {
      *done = true;
      return static_cast<sim::Micros>(0);
    }
    SCANSHARE_ASSIGN_OR_RETURN(
        sim::Micros elapsed,
        ProcessBlock(current_, now, buffer::PagePriority::kNormal));
    ++current_;
    if (current_ >= sequence_.size()) {
      done_ = true;
      metrics_.end_time = now + elapsed;
    }
    *done = done_;
    return elapsed;
  }

  StatusOr<QueryOutput> Close(sim::Micros now) override {
    if (!done_) return Status::FailedPrecondition("IndexScanOp: not finished");
    if (closed_) return Status::FailedPrecondition("IndexScanOp: already closed");
    closed_ = true;
    if (metrics_.end_time == 0) metrics_.end_time = now;
    return agg_->Finish(metrics_.tuples_scanned);
  }
};

// ------------------------------------------------------- SharedIndexScanOp

/// SISCAN: ISM-placed wrap-around traversal with per-block updates.
class SharedIndexScanOp final : public IndexScanBase {
 public:
  using IndexScanBase::IndexScanBase;

  Status Open(sim::Micros now) override {
    if (open_) {
      return Status::FailedPrecondition("SharedIndexScanOp: already open");
    }
    if (env_.ism == nullptr) {
      return Status::InvalidArgument("SharedIndexScanOp: no ISM");
    }
    SCANSHARE_RETURN_IF_ERROR(BindAll());
    metrics_.start_time = now;
    done_ = sequence_.empty();
    if (done_) {
      metrics_.end_time = now;
      open_ = true;
      return Status::OK();  // Nothing to scan; never registers.
    }

    ssm::IndexScanDescriptor desc;
    desc.index_id = env_.base.table->id;
    desc.start_key = key_lo_;
    desc.end_key = key_hi_;
    desc.estimated_blocks = sequence_.size();
    desc.estimated_duration = EstimateScanDuration(
        *env_.base.table, query_, *env_.base.cost,
        env_.base.disk_options != nullptr ? *env_.base.disk_options
                                          : sim::DiskOptions(),
        sequence_.size() * env_.index->block_pages());
    desc.throttle_tolerance = query_.throttle_tolerance;
    SCANSHARE_ASSIGN_OR_RETURN(ssm::IndexStartInfo start,
                               env_.ism->StartIndexScan(desc, now));
    metrics_.overhead += IsmCallCost();
    scan_id_ = start.id;

    start_idx_ = 0;
    if (start.placed) {
      // Locate the assigned (key, pos) in our own traversal order.
      auto it = std::lower_bound(
          locations_.begin(), locations_.end(), start.start_location,
          [](const ssm::IndexScanLocation& a, const ssm::IndexScanLocation& b) {
            if (a.key != b.key) return a.key < b.key;
            return a.pos_in_key < b.pos_in_key;
          });
      if (it != locations_.end()) {
        start_idx_ = static_cast<size_t>(it - locations_.begin());
      }
    }
    current_ = start_idx_;
    open_ = true;
    return Status::OK();
  }

  StatusOr<sim::Micros> Step(sim::Micros now, bool* done) override {
    if (!open_ || closed_) {
      return Status::FailedPrecondition("SharedIndexScanOp: not open");
    }
    if (done_) {
      *done = true;
      return static_cast<sim::Micros>(0);
    }

    // Fresh ISM update before the block (see the table-scan SISCAN for
    // why the advice must be fresh): report the block about to be read.
    SCANSHARE_ASSIGN_OR_RETURN(
        ssm::IndexUpdateResult update,
        env_.ism->UpdateIndexScan(scan_id_, locations_[current_], blocks_done_,
                                  now));
    metrics_.overhead += IsmCallCost();
    sim::Micros elapsed = IsmCallCost();
    priority_ = update.priority;
    if (update.wait > 0) {
      metrics_.throttle_wait += update.wait;
      elapsed += update.wait;
    }

    SCANSHARE_ASSIGN_OR_RETURN(sim::Micros block_cost,
                               ProcessBlock(current_, now + elapsed, priority_));
    elapsed += block_cost;

    // Advance with wrap-around: [start_idx, n) then [0, start_idx).
    ++current_;
    if (!phase2_ && current_ >= sequence_.size()) {
      phase2_ = true;
      current_ = 0;
    }
    const bool finished =
        blocks_done_ >= sequence_.size() ||
        (phase2_ && current_ >= start_idx_);
    if (finished) {
      done_ = true;
      metrics_.end_time = now + elapsed;
      SCANSHARE_RETURN_IF_ERROR(env_.ism->EndIndexScan(scan_id_, metrics_.end_time));
      metrics_.overhead += IsmCallCost();
      elapsed += IsmCallCost();
    }
    *done = done_;
    return elapsed;
  }

  StatusOr<QueryOutput> Close(sim::Micros now) override {
    if (!done_) {
      return Status::FailedPrecondition("SharedIndexScanOp: not finished");
    }
    if (closed_) {
      return Status::FailedPrecondition("SharedIndexScanOp: already closed");
    }
    closed_ = true;
    if (metrics_.end_time == 0) metrics_.end_time = now;
    return agg_->Finish(metrics_.tuples_scanned);
  }

 private:
  sim::Micros IsmCallCost() const {
    return static_cast<sim::Micros>(std::llround(env_.base.cost->ssm_call_us));
  }

  ssm::ScanId scan_id_ = ssm::kInvalidScanId;
  size_t start_idx_ = 0;
  bool phase2_ = false;
  buffer::PagePriority priority_ = buffer::PagePriority::kNormal;
};

}  // namespace

uint64_t ResolveIndexRange(const storage::BlockIndex& index,
                           const QuerySpec& query, int64_t* key_lo,
                           int64_t* key_hi) {
  *key_lo = std::max(query.key_lo, index.min_key());
  *key_hi = std::min(query.key_hi, index.max_key());
  if (*key_hi < *key_lo) return 0;
  return index.BlockCountInRange(*key_lo, *key_hi);
}

std::unique_ptr<ScanCursor> MakeIndexScan(const IndexScanEnv& env,
                                          QuerySpec query) {
  return std::make_unique<IndexScanOp>(env, std::move(query));
}

std::unique_ptr<ScanCursor> MakeSharedIndexScan(const IndexScanEnv& env,
                                                QuerySpec query) {
  return std::make_unique<SharedIndexScanOp>(env, std::move(query));
}

}  // namespace scanshare::exec
