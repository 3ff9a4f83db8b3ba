#include "exec/index_scan_ops.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace scanshare::exec {

namespace {

/// The index scan: keys in order and blocks in BID order at Normal
/// priority without an ISM; with one, an ISM-placed wrap-around traversal
/// with per-block location updates, throttle waits and advised priorities.
class IndexScanOp final : public ScanCursor {
 public:
  IndexScanOp(const IndexScanEnv& env, QuerySpec query)
      : ScanCursor(env.base, std::move(query)),
        index_(env.index),
        ism_(env.ism) {}

  sim::PageId position() const override {
    if (sequence_.empty()) return env_.table->first_page;
    return BlockFirstPage(sequence_[std::min(current_, sequence_.size() - 1)]);
  }

 private:
  Status Start(sim::Micros now) override {
    if (query_.access != AccessPath::kIndexScan) {
      return Status::InvalidArgument("index scan: query access path mismatch");
    }
    if (index_ == nullptr) {
      return Status::InvalidArgument("index scan: no block index");
    }
    SCANSHARE_RETURN_IF_ERROR(Bind());
    ResolveIndexRange(*index_, query_, &key_lo_, &key_hi_);
    sequence_ = index_->BlockSequence(key_lo_, key_hi_);
    done_ = sequence_.empty();
    // A scan whose range misses every key never registers.
    if (done_) return Status::OK();
    if (ism_ != nullptr) SCANSHARE_RETURN_IF_ERROR(Register(now));
    current_ = start_idx_;
    chunks_->StartWalk(
        ScanWalk::Blocks(sequence_, start_idx_, env_.table->first_page,
                         index_->block_pages(), env_.table->end_page()),
        env_.kernel_workers);
    return Status::OK();
  }

  /// Registers with the ISM and places the scan at the block it assigns.
  Status Register(sim::Micros now) {
    locations_.reserve(sequence_.size());
    for (int64_t key = key_lo_; key <= key_hi_; ++key) {
      const uint32_t blocks =
          static_cast<uint32_t>(index_->BlocksFor(key).size());
      for (uint32_t pos = 0; pos < blocks; ++pos) {
        locations_.push_back(ssm::IndexScanLocation{key, pos});
      }
    }
    ssm::IndexScanDescriptor desc;
    desc.index_id = env_.table->id;
    desc.start_key = key_lo_;
    desc.end_key = key_hi_;
    desc.estimated_blocks = sequence_.size();
    desc.estimated_duration = EstimateScanDuration(
        *env_.table, query_, *env_.cost, disk_options(),
        sequence_.size() * index_->block_pages());
    desc.throttle_tolerance = query_.throttle_tolerance;
    SCANSHARE_ASSIGN_OR_RETURN(ssm::IndexStartInfo start,
                               ism_->StartIndexScan(desc, now));
    ChargeManagerCall();
    scan_id_ = start.id;
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
    return Status::OK();
  }

  StatusOr<sim::Micros> Advance(sim::Micros now) override {
    sim::Micros elapsed = 0;
    buffer::PagePriority priority = buffer::PagePriority::kNormal;
    if (ism_ != nullptr) {
      // Fresh ISM update before the block (see the table scan for why the
      // advice must be fresh): report the block about to be read.
      SCANSHARE_ASSIGN_OR_RETURN(
          ssm::IndexUpdateResult update,
          ism_->UpdateIndexScan(scan_id_, locations_[current_], blocks_done_,
                                now));
      elapsed = ChargeManagerCall(update.wait);
      priority = update.priority;
    }

    const sim::PageId first = BlockFirstPage(sequence_[current_]);
    const sim::PageId end = std::min<sim::PageId>(
        first + index_->block_pages(), env_.table->end_page());
    ++blocks_done_;
    SCANSHARE_ASSIGN_OR_RETURN(
        sim::Micros block_cost,
        chunks_->ProcessRange(first, end, now + elapsed, priority));
    elapsed += block_cost;
    ++current_;

    // A sharing scan wraps at the sequence end, even when it started at
    // its first block; the second segment covers [0, start_idx).
    if (!wrapped_ && current_ >= sequence_.size() && ism_ != nullptr) {
      wrapped_ = true;
      current_ = 0;
    }
    if (wrapped_ ? current_ >= start_idx_ : current_ >= sequence_.size()) {
      done_ = true;
      metrics_.end_time = now + elapsed;
      if (ism_ != nullptr) {
        SCANSHARE_RETURN_IF_ERROR(
            ism_->EndIndexScan(scan_id_, metrics_.end_time));
        elapsed += ChargeManagerCall();
      }
    }
    return elapsed;
  }

  sim::PageId BlockFirstPage(storage::BlockId bid) const {
    return env_.table->first_page +
           static_cast<sim::PageId>(bid) * index_->block_pages();
  }

  const storage::BlockIndex* index_;
  ssm::IndexScanSharingManager* ism_;
  int64_t key_lo_ = 0;
  int64_t key_hi_ = 0;
  std::vector<storage::BlockId> sequence_;         ///< Traversal order.
  std::vector<ssm::IndexScanLocation> locations_;  ///< Parallel to sequence_.
  ssm::ScanId scan_id_ = ssm::kInvalidScanId;
  size_t start_idx_ = 0;  ///< Where the ISM placed the scan.
  size_t current_ = 0;    ///< Next sequence position to process.
  uint64_t blocks_done_ = 0;
  bool wrapped_ = false;
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

}  // namespace scanshare::exec
