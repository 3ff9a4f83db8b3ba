// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.

#include "layers.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "buffer/buffer_pool.h"
#include "buffer/page_policy.h"
#include "io/prefetcher.h"
#include "io/sim_backend.h"
#include "ssm/index_scan_sharing_manager.h"
#include "ssm/scan_sharing_manager.h"
#include "ssm/sharing_policy.h"
#include "storage/page.h"

namespace scanshare::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kReplayMinPages = 2048;

uint64_t NanosBetween(Clock::time_point start, Clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

class TimedSharingPolicy final : public ssm::SharingPolicy {
 public:
  TimedSharingPolicy(std::shared_ptr<ssm::SharingPolicy> inner,
                     LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  const char* name() const override { return inner_->name(); }

  ssm::Placement Place(const ssm::ScanDescriptor& desc, double est_speed_pps,
                       const std::vector<const ssm::ScanState*>& active,
                       size_t total_active_scans,
                       std::optional<sim::PageId> last_finished_pos,
                       const ssm::ScanCircle& circle) const override {
    LayerClock::Span span(clock_, Layer::kPolicyPlace);
    return inner_->Place(desc, est_speed_pps, active, total_active_scans,
                         last_finished_pos, circle);
  }

  std::vector<ssm::ScanGroup> Group(
      const std::vector<ssm::ScanPoint>& points,
      const ssm::ScanCircle& circle) const override {
    LayerClock::Span span(clock_, Layer::kPolicyGroup);
    return inner_->Group(points, circle);
  }

  ssm::ThrottleDecision Throttle(const ssm::ScanState& scan,
                                 const ssm::ScanGroup& group,
                                 const ssm::ScanState& trailer,
                                 const ssm::ScanCircle& circle) const override {
    LayerClock::Span span(clock_, Layer::kPolicyThrottle);
    return inner_->Throttle(scan, group, trailer, circle);
  }

  void OnScanStarted(const ssm::ScanState& scan) override {
    LayerClock::Span span(clock_, Layer::kPolicyHooks);
    inner_->OnScanStarted(scan);
  }

  void OnLocationUpdate(const ssm::ScanState& scan) override {
    LayerClock::Span span(clock_, Layer::kPolicyHooks);
    inner_->OnLocationUpdate(scan);
  }

  void OnScanEnded(ssm::ScanId id, sim::PageId final_pos) override {
    LayerClock::Span span(clock_, Layer::kPolicyHooks);
    inner_->OnScanEnded(id, final_pos);
  }

 private:
  std::shared_ptr<ssm::SharingPolicy> inner_;
  LayerClock* clock_;
};

class TimedReplacer final : public buffer::ReplacementPolicy {
 public:
  TimedReplacer(std::unique_ptr<buffer::ReplacementPolicy> inner,
                LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void RecordAccess(buffer::FrameId frame) override {
    LayerClock::Span span(clock_, Layer::kReplacer);
    inner_->RecordAccess(frame);
  }
  void SetPriority(buffer::FrameId frame,
                   buffer::PagePriority priority) override {
    LayerClock::Span span(clock_, Layer::kReplacer);
    inner_->SetPriority(frame, priority);
  }
  void Pin(buffer::FrameId frame) override {
    LayerClock::Span span(clock_, Layer::kReplacer);
    inner_->Pin(frame);
  }
  void Unpin(buffer::FrameId frame) override {
    LayerClock::Span span(clock_, Layer::kReplacer);
    inner_->Unpin(frame);
  }
  void Remove(buffer::FrameId frame) override {
    LayerClock::Span span(clock_, Layer::kReplacer);
    inner_->Remove(frame);
  }
  void NotePage(buffer::FrameId frame, uint64_t page) override {
    LayerClock::Span span(clock_, Layer::kReplacer);
    inner_->NotePage(frame, page);
  }
  [[nodiscard]] StatusOr<buffer::FrameId> Evict() override {
    LayerClock::Span span(clock_, Layer::kReplacer);
    return inner_->Evict();
  }
  // Introspection for the pool's audits only; not part of the hot path.
  size_t EvictableCount() const override { return inner_->EvictableCount(); }
  bool IsTracked(buffer::FrameId frame) const override {
    return inner_->IsTracked(frame);
  }
  bool IsEvictable(buffer::FrameId frame) const override {
    return inner_->IsEvictable(frame);
  }
  const char* Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<buffer::ReplacementPolicy> inner_;
  LayerClock* clock_;
};

class TimedPipeline final : public io::IoPipeline {
 public:
  TimedPipeline(io::IoPipeline* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  [[nodiscard]] io::ExtentRead Acquire(sim::PageId first, uint64_t count,
                                       sim::Micros now) override {
    LayerClock::Span span(clock_, Layer::kIoAcquire);
    return inner_->Acquire(first, count, now);
  }

 private:
  io::IoPipeline* inner_;
  LayerClock* clock_;
};

class TimedBackend final : public io::IoBackend {
 public:
  TimedBackend(io::IoBackend* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  uint32_t page_size() const override { return inner_->page_size(); }
  const char* name() const override { return inner_->name(); }

  [[nodiscard]] StatusOr<sim::IoResult> Charge(sim::PageId first,
                                               uint64_t count,
                                               sim::Micros now) override {
    LayerClock::Span span(clock_, Layer::kIoBackend);
    return inner_->Charge(first, count, now);
  }
  [[nodiscard]] Status StartBytes(sim::PageId first, uint64_t count,
                                  uint8_t* dest,
                                  io::ReadToken* token) override {
    LayerClock::Span span(clock_, Layer::kIoBackend);
    return inner_->StartBytes(first, count, dest, token);
  }
  [[nodiscard]] Status Join(io::ReadToken token) override {
    LayerClock::Span span(clock_, Layer::kIoBackend);
    return inner_->Join(token);
  }
  io::RealIoStats real_stats() const override { return inner_->real_stats(); }

 private:
  io::IoBackend* inner_;
  LayerClock* clock_;
};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPolicyPlace: return "ssm.policy.place";
    case Layer::kPolicyGroup: return "ssm.policy.group";
    case Layer::kPolicyThrottle: return "ssm.policy.throttle";
    case Layer::kPolicyHooks: return "ssm.policy.hooks";
    case Layer::kReplacer: return "buffer.replacer";
    case Layer::kIoAcquire: return "io.acquire";
    case Layer::kIoBackend: return "io.backend";
    case Layer::kCount: break;
  }
  return "unknown";
}

void LayerClock::Enter(Layer layer) {
  stack_.push_back(Frame{layer, Clock::now(), 0});
}

void LayerClock::Exit() {
  const Clock::time_point end = Clock::now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const uint64_t total = NanosBetween(frame.start, end);
  LayerTotals& t = totals_[static_cast<size_t>(frame.layer)];
  t.self_ns += total > frame.child_ns ? total - frame.child_ns : 0;
  ++t.calls;
  if (!stack_.empty()) stack_.back().child_ns += total;
}

StatusOr<exec::RunResult> RunTraced(
    exec::Database* db, const exec::RunConfig& config,
    const std::vector<exec::StreamSpec>& streams, LayerClock* clock) {
  if (config.mode != exec::ScanMode::kShared || config.trace.enabled ||
      config.policy == PolicyKind::kPbmPredictive ||
      config.io.backend != exec::IoOptions::Backend::kSim) {
    return Status::InvalidArgument(
        "RunTraced: only shared-mode sim-backend runs without a tracer or "
        "position board are supported");
  }
  db->env()->clock().Reset();
  db->env()->disk().Reset();

  // Same order of construction as Database::Run: pool, SSM, ISM, backend,
  // prefetcher, executor (the prefetcher must die before its backend).
  const std::shared_ptr<const buffer::PagePolicy> page_policy =
      buffer::MakePagePolicy(config.policy, nullptr);
  buffer::BufferPool pool(
      db->disk_manager(),
      std::make_unique<TimedReplacer>(
          page_policy->MakeReplacer(config.buffer.num_frames), clock),
      config.buffer);

  ssm::SsmOptions ssm_options = config.ssm;
  ssm_options.bufferpool_pages = config.buffer.num_frames;
  ssm_options.prefetch_extent_pages = config.buffer.prefetch_extent_pages;
  ssm::ScanSharingManager ssm(
      ssm_options,
      std::make_shared<TimedSharingPolicy>(
          ssm::MakeSharingPolicy(config.policy, ssm_options, nullptr), clock),
      page_policy);

  ssm::IsmOptions ism_options = config.ism;
  if (ism_options.bufferpool_blocks == 0) {
    const uint64_t block_pages =
        std::max<uint64_t>(1, config.buffer.prefetch_extent_pages);
    ism_options.bufferpool_blocks =
        std::max<uint64_t>(1, config.buffer.num_frames / block_pages);
  }
  ssm::IndexScanSharingManager ism(ism_options);

  io::SimIoBackend sim_backend(db->disk_manager());
  TimedBackend backend(&sim_backend, clock);
  std::unique_ptr<io::Prefetcher> prefetcher;
  std::unique_ptr<TimedPipeline> pipeline;
  if (config.io.prefetch_depth > 0) {
    io::PrefetchOptions prefetch_options;
    prefetch_options.depth = config.io.prefetch_depth;
    prefetch_options.queue_bound = config.io.queue_bound;
    prefetcher = std::make_unique<io::Prefetcher>(
        &backend, &ssm, &pool, config.buffer.prefetch_extent_pages,
        prefetch_options);
    pipeline = std::make_unique<TimedPipeline>(prefetcher.get(), clock);
    pool.SetIoPipeline(pipeline.get());
  }

  exec::StreamExecutor executor(db->env(), &pool, db->catalog(), &ssm, &ism,
                                config.cost, exec::ScanMode::kShared,
                                config.kernel);
  if (prefetcher != nullptr) executor.SetIoPipeline(prefetcher.get());
  return executor.Run(streams, config.series_bucket, config.record_traces);
}

StatusOr<KernelRate> ReplayKernelPass(exec::Database* db,
                                      const exec::QuerySpec& query) {
  SCANSHARE_ASSIGN_OR_RETURN(const storage::TableInfo* table,
                             db->catalog()->GetTable(query.table));
  const storage::Schema& schema = table->schema;
  exec::Predicate predicate = query.predicate;
  SCANSHARE_RETURN_IF_ERROR(predicate.Bind(schema));
  exec::CompiledPredicate compiled;
  if (!predicate.empty()) {
    SCANSHARE_ASSIGN_OR_RETURN(compiled, predicate.Compile(schema));
  }
  exec::Aggregator agg(query.aggs, query.group_by);
  SCANSHARE_RETURN_IF_ERROR(agg.Bind(schema));
  SCANSHARE_RETURN_IF_ERROR(agg.PrepareHot(schema));
  const storage::DiskManager& disk = *db->disk_manager();
  // Small tables are swept several times, so that a pass lasts long enough
  // (tens of milliseconds) not to be one burst of host noise.
  const uint64_t table_pages = table->end_page() - table->first_page;
  const uint64_t sweeps =
      (kReplayMinPages + table_pages - 1) / std::max<uint64_t>(1, table_pages);

  std::vector<uint8_t> frame(disk.page_size());
  std::vector<const uint8_t*> tuples;
  std::vector<uint8_t> sel;
  uint64_t scanned = 0;
  uint64_t pred_total = 0;
  uint64_t agg_total = 0;
  for (uint64_t i = 0; i < sweeps * table_pages; ++i) {
    const sim::PageId p = table->first_page + i % table_pages;
    SCANSHARE_ASSIGN_OR_RETURN(const uint8_t* data, disk.PageData(p));
    // Like a pool install, copy the image into a frame first: the engine's
    // kernel reads cache-warm frames, not the cold page store.
    std::memcpy(frame.data(), data, frame.size());
    const storage::Page view(frame.data(), disk.page_size());
    if (!view.IsValid()) {
      return Status::Corruption("replay: page failed validation");
    }
    const uint16_t count = view.tuple_count();
    tuples.resize(count);
    for (uint16_t slot = 0; slot < count; ++slot) {
      tuples[slot] = view.TupleDataUnchecked(slot);
    }
    sel.resize(count);
    const Clock::time_point t0 = Clock::now();
    if (compiled.empty()) {
      std::fill(sel.begin(), sel.end(), uint8_t{1});
    } else {
      compiled.MatchBatch(tuples.data(), count, sel.data());
    }
    const Clock::time_point t1 = Clock::now();
    agg.ConsumeBatch(tuples.data(), sel.data(), count);
    const Clock::time_point t2 = Clock::now();
    pred_total += NanosBetween(t0, t1);
    agg_total += NanosBetween(t1, t2);
    scanned += count;
  }
  if (scanned == 0) return Status::FailedPrecondition("replay: empty table");
  return KernelRate{
      static_cast<double>(pred_total) / static_cast<double>(scanned),
      static_cast<double>(agg_total) / static_cast<double>(scanned)};
}

}  // namespace scanshare::benchmark
