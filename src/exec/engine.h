// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Database: the top-level facade a user of this library interacts with.
// It owns the simulated machine, the storage layer, and the catalog, and
// executes experiment runs — each run gets a fresh buffer pool (sized and
// policied per the run config), a fresh Scan Sharing Manager, and a reset
// clock/disk, so base-vs-shared comparisons are exactly apples-to-apples.
// EngineInstance is that per-run engine, built in this one place for every
// driver: Database::Run, the scan service and the morsel-parallel runner.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/page_policy.h"
#include "common/policy_kind.h"
#include "common/status.h"
#include "exec/stream_executor.h"
#include "obs/trace.h"
#include "sim/env.h"
#include "ssm/options.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"

namespace scanshare::exec {

/// Replacement policy used by baseline runs (shared runs always use the
/// priority-honouring policy, which the release hints require).
enum class BaselinePolicy {
  kLru,    ///< Classic LRU — the paper's baseline.
  kClock,  ///< Second-chance (related work §2).
  kTwoQ,   ///< Simplified 2Q (related work §2) — the classic anti-scan cache.
};

/// Push I/O pipeline configuration (DESIGN.md §15). The default —
/// prefetch_depth 0, sim backend — keeps the legacy pull path untouched:
/// no pipeline object is created and every run is bit-identical to
/// pre-pipeline builds.
struct IoOptions {
  /// Where page bytes come from.
  enum class Backend {
    kSim,   ///< DiskManager page store (deterministic; the default).
    kFile,  ///< Real table-image file via pread workers (wall-clock bytes;
            ///< virtual-time counters stay identical to kSim).
  };
  Backend backend = Backend::kSim;

  /// Extents of lookahead per scan group. 0 disables the push pipeline
  /// entirely (legacy demand-pull reads). In kShared mode with depth > 0
  /// the run attaches a Prefetcher pumped by the executor; kBaseline runs
  /// get the demand-only pipeline (reads still flow through the backend,
  /// but nothing is issued ahead).
  uint64_t prefetch_depth = 0;

  /// Ready-extent budget per group window (0 = prefetch_depth). Setting it
  /// below the depth forces queue-full backpressure (kIoQueueFull).
  uint64_t queue_bound = 0;

  /// Table-image path for Backend::kFile (see io::FileIoBackend::Open;
  /// write one with io::FileIoBackend::WriteTableFile).
  std::string file_path;
};

/// Everything that varies between experiment runs.
struct RunConfig {
  /// kShared enables the paper's full mechanism (SSCAN + SSM +
  /// priority-honouring replacement); kBaseline is the vanilla engine
  /// (TSCAN + the configured baseline policy).
  ScanMode mode = ScanMode::kShared;

  /// Cache policy for kBaseline runs. Exists so the benchmarks can show
  /// that smarter general-purpose caching does not substitute for scan
  /// coordination (the paper's related-work argument).
  BaselinePolicy baseline_policy = BaselinePolicy::kLru;

  /// Sharing-policy pair for kShared runs: selects both the SSM-side
  /// SharingPolicy (placement / grouping / throttling) and the pool-side
  /// PagePolicy (replacer + release hints) as one coherent regime. The
  /// default reproduces the paper's group-and-throttle mechanism
  /// bit-identically; the alternatives exist for the A/B policy matrix
  /// (bench_a9). Ignored by kBaseline runs.
  PolicyKind policy = PolicyKind::kGroupThrottle;

  /// Buffer pool geometry. The experiments size num_frames at ~5 % of
  /// Catalog::TotalTablePages(), the paper's ratio.
  buffer::BufferPoolOptions buffer;

  /// SSM policy knobs (used in kShared mode; bufferpool_pages and
  /// prefetch_extent_pages are overridden from `buffer` for consistency).
  ssm::SsmOptions ssm;

  /// ISM policy knobs for block-index scans (kShared mode). If
  /// `ism.bufferpool_blocks` is 0 it is derived from the buffer geometry
  /// (frames / prefetch extent, the typical MDC block size).
  ssm::IsmOptions ism;

  /// CPU cost model.
  CostModel cost;

  /// Unread: kept only for benchmark/layers.cc, which passes it to the
  /// StreamExecutor constructor (see KernelMode).
  KernelMode kernel = KernelMode::kColumnar;

  /// Push I/O pipeline: backend selection and per-group prefetch window.
  IoOptions io;

  /// Granularity of the reads/seeks-over-time series.
  sim::Micros series_bucket = sim::Seconds(1);

  /// Record per-step (time, position) samples for every scan (the
  /// time/location plots). Off by default — traces cost memory.
  bool record_traces = false;

  /// Lifecycle event tracing (obs::). When enabled, the run allocates a
  /// Tracer, wires it through the pool / SSM / disk / executor, and
  /// attaches it to RunResult::trace. Off by default — when disabled every
  /// hook is a single untaken null test.
  obs::TraceOptions trace;
};

/// Owns the simulated machine and storage; executes runs.
class Database {
 public:
  /// Creates a database over a simulated disk with the given cost model.
  explicit Database(sim::DiskOptions disk_options = sim::DiskOptions());

  /// The catalog, for loading tables (see workload::).
  storage::Catalog* catalog() { return &catalog_; }
  const storage::Catalog* catalog() const { return &catalog_; }

  /// The storage manager (page store).
  storage::DiskManager* disk_manager() { return &disk_manager_; }

  /// The simulated machine.
  sim::Env* env() { return &env_; }

  /// Buffer frames amounting to `fraction` of the loaded data (the paper
  /// uses 5 %), with a floor of two prefetch extents.
  size_t FramesForFraction(double fraction,
                           uint64_t extent_pages = 16) const;

  /// Executes `streams` under `config` from a cold cache at virtual time
  /// zero: builds an EngineInstance and runs its executor to completion.
  [[nodiscard]] StatusOr<RunResult> Run(const RunConfig& config,
                          const std::vector<StreamSpec>& streams);

 private:
  sim::Env env_;
  storage::DiskManager disk_manager_;
  storage::Catalog catalog_;
};

/// One run's engine over a Database's storage. Create resets the clock and
/// disk, then builds the policy pair, the SSM (with its post-override
/// SsmOptions), the ISM, the tracer and — for Pool::kSequential — the
/// BufferPool, the optional push pipeline and a StreamExecutor over them.
/// Destruction detaches the tracer from the disk, which outlives the run.
class EngineInstance {
 public:
  enum class Pool {
    kSequential,  ///< BufferPool + push pipeline + StreamExecutor.
    kNone,  ///< The caller builds a pool from MakeReplacer() + tracer().
  };

  /// Fails only when the file backend cannot open its table image.
  [[nodiscard]] static StatusOr<std::unique_ptr<EngineInstance>> Create(
      Database* db, const RunConfig& config, Pool pool = Pool::kSequential);
  ~EngineInstance();
  EngineInstance(const EngineInstance&) = delete;
  EngineInstance& operator=(const EngineInstance&) = delete;

  /// The PagePolicy's replacer in shared mode, else the baseline policy.
  std::unique_ptr<buffer::ReplacementPolicy> MakeReplacer(size_t frames) const;

  buffer::BufferPool* pool() { return pool_.get(); }      // Null for kNone.
  StreamExecutor* executor() { return executor_.get(); }  // Null for kNone.
  /// Null in baseline mode, which never consults them.
  ssm::ScanSharingManager* ssm() { return shared() ? &ssm_ : nullptr; }
  ssm::IndexScanSharingManager* ism() { return shared() ? &ism_ : nullptr; }
  /// Null unless config.trace.enabled.
  obs::Tracer* tracer() { return tracer_.get(); }
  std::shared_ptr<const obs::Tracer> trace() const { return tracer_; }

 private:
  EngineInstance(Database* db, const RunConfig& config);
  bool shared() const { return config_.mode == ScanMode::kShared; }

  Database* db_;
  const RunConfig config_;
  std::shared_ptr<buffer::ScanPositionBoard> board_;
  std::shared_ptr<const buffer::PagePolicy> page_policy_;
  ssm::ScanSharingManager ssm_;
  ssm::IndexScanSharingManager ism_;
  std::shared_ptr<obs::Tracer> tracer_;
  std::unique_ptr<buffer::BufferPool> pool_;
  // The prefetcher joins outstanding reads when destroyed: it must die
  // before the backend.
  std::unique_ptr<io::IoBackend> io_backend_;
  std::unique_ptr<io::Prefetcher> prefetcher_;
  std::unique_ptr<StreamExecutor> executor_;
};

}  // namespace scanshare::exec
