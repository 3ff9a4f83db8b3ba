#include "exec/engine.h"

#include <algorithm>
#include <utility>

#include "buffer/alternative_replacers.h"
#include "buffer/policies/scan_position_board.h"
#include "io/file_backend.h"
#include "io/prefetcher.h"
#include "io/sim_backend.h"
#include "ssm/sharing_policy.h"

namespace scanshare::exec {

namespace {

/// The SSM's pool size and extent always come from the buffer geometry.
ssm::SsmOptions SsmOptionsFor(const RunConfig& config) {
  ssm::SsmOptions options = config.ssm;
  options.bufferpool_pages = config.buffer.num_frames;
  options.prefetch_extent_pages = config.buffer.prefetch_extent_pages;
  return options;
}

/// A zero `bufferpool_blocks` is derived from the buffer geometry (frames /
/// prefetch extent, the typical MDC block size).
ssm::IsmOptions IsmOptionsFor(const RunConfig& config) {
  ssm::IsmOptions options = config.ism;
  if (options.bufferpool_blocks == 0) {
    const uint64_t block_pages =
        std::max<uint64_t>(1, config.buffer.prefetch_extent_pages);
    options.bufferpool_blocks =
        std::max<uint64_t>(1, config.buffer.num_frames / block_pages);
  }
  return options;
}

}  // namespace

Database::Database(sim::DiskOptions disk_options)
    : env_(disk_options), disk_manager_(&env_), catalog_(&disk_manager_) {}

size_t Database::FramesForFraction(double fraction, uint64_t extent_pages) const {
  const uint64_t total = catalog_.TotalTablePages();
  const auto frames =
      static_cast<size_t>(fraction * static_cast<double>(total));
  return std::max<size_t>(frames, 2 * extent_pages);
}

StatusOr<RunResult> Database::Run(const RunConfig& config,
                                  const std::vector<StreamSpec>& streams) {
  SCANSHARE_ASSIGN_OR_RETURN(std::unique_ptr<EngineInstance> engine,
                             EngineInstance::Create(this, config));
  SCANSHARE_ASSIGN_OR_RETURN(
      RunResult result, engine->executor()->Run(streams, config.series_bucket,
                                                config.record_traces));
  result.trace = engine->trace();
  return result;
}

// Shared runs route replacer + release hints + SSM decisions through one
// PolicyKind-selected pair; the position board (predictive policy only)
// carries scan trajectories from the SSM side to eviction. Baseline runs
// never consult the SSM, so they take the default pair via nullptr.
EngineInstance::EngineInstance(Database* db, const RunConfig& config)
    : db_(db),
      config_(config),
      board_(shared() && config.policy == PolicyKind::kPbmPredictive
                 ? std::make_shared<buffer::ScanPositionBoard>()
                 : nullptr),
      page_policy_(shared() ? buffer::MakePagePolicy(config.policy, board_)
                            : nullptr),
      ssm_(SsmOptionsFor(config),
           shared() ? ssm::MakeSharingPolicy(config.policy,
                                             SsmOptionsFor(config), board_)
                    : nullptr,
           page_policy_),
      ism_(IsmOptionsFor(config)) {}

EngineInstance::~EngineInstance() { db_->env()->disk().SetTracer(nullptr); }

StatusOr<std::unique_ptr<EngineInstance>> EngineInstance::Create(
    Database* db, const RunConfig& config, Pool pool) {
  // Cold, reproducible start.
  db->env()->clock().Reset();
  db->env()->disk().Reset();
  std::unique_ptr<EngineInstance> engine(new EngineInstance(db, config));
  EngineInstance& e = *engine;
  if (config.trace.enabled) {
    e.tracer_ = std::make_shared<obs::Tracer>(config.trace);
    e.ssm_.SetTracer(e.tracer_.get());
    db->env()->disk().SetTracer(e.tracer_.get());
  }
  if (pool == Pool::kNone) return engine;

  e.pool_ = std::make_unique<buffer::BufferPool>(
      db->disk_manager(), e.MakeReplacer(config.buffer.num_frames),
      config.buffer);
  if (e.tracer_ != nullptr) e.pool_->SetTracer(e.tracer_.get());

  // Push I/O pipeline (opt-in; the prefetch_depth==0 + kSim default leaves
  // it null and the pool on the legacy pull path, bit-identically). The
  // pool only dereferences its pipeline inside FetchSlow, never at
  // destruction, so pool-vs-prefetcher destruction order is free.
  if (config.io.prefetch_depth > 0 ||
      config.io.backend == IoOptions::Backend::kFile) {
    if (config.io.backend == IoOptions::Backend::kFile) {
      io::FileBackendOptions file_options;
      file_options.path = config.io.file_path;
      SCANSHARE_ASSIGN_OR_RETURN(
          e.io_backend_, io::FileIoBackend::Open(db->disk_manager(), file_options));
    } else {
      e.io_backend_ = std::make_unique<io::SimIoBackend>(db->disk_manager());
    }
    io::PrefetchOptions prefetch_options;
    prefetch_options.depth = config.io.prefetch_depth;
    prefetch_options.queue_bound = config.io.queue_bound;
    e.prefetcher_ = std::make_unique<io::Prefetcher>(
        e.io_backend_.get(), e.ssm(), e.pool_.get(),
        config.buffer.prefetch_extent_pages, prefetch_options);
    if (e.tracer_ != nullptr) e.prefetcher_->SetTracer(e.tracer_.get());
    e.pool_->SetIoPipeline(e.prefetcher_.get());
  }

  e.executor_ = std::make_unique<StreamExecutor>(
      db->env(), e.pool_.get(), db->catalog(), e.ssm(), e.ism(), config.cost,
      config.mode, KernelMode::kColumnar, e.tracer_.get());
  // Attach even when prefetch_depth is 0 (the sync-file arm): pumping a
  // depth-0 window issues nothing, and the attachment is what routes the
  // pipeline/backend counters into RunResult::io / RunResult::real_io.
  if (e.prefetcher_ != nullptr) e.executor_->SetIoPipeline(e.prefetcher_.get());
  return engine;
}

std::unique_ptr<buffer::ReplacementPolicy> EngineInstance::MakeReplacer(
    size_t frames) const {
  if (page_policy_ != nullptr) return page_policy_->MakeReplacer(frames);
  switch (config_.baseline_policy) {
    case BaselinePolicy::kClock:
      return std::make_unique<buffer::ClockReplacer>(frames);
    case BaselinePolicy::kTwoQ:
      return std::make_unique<buffer::TwoQReplacer>(frames);
    case BaselinePolicy::kLru:
      break;
  }
  return std::make_unique<buffer::LruReplacer>(frames);
}

}  // namespace scanshare::exec
