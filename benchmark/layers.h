// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Per-layer host-time attribution for the benchmark's traced run. The
// engine is assembled here from its public constructors, the way
// exec::Database::Run assembles it, except that every seam the engine
// exposes as an interface is wrapped in a timing decorator:
//
//   ssm.policy.*     ssm::SharingPolicy        (place / group / throttle /
//                                               observation hooks)
//   buffer.replacer  buffer::ReplacementPolicy (from PagePolicy::MakeReplacer)
//   io.acquire       io::IoPipeline            (between BufferPool and the
//                                               Prefetcher)
//   io.backend       io::IoBackend             (under the Prefetcher)
//
// Spans nest (a demand Acquire calls the backend), so each layer is
// credited with its *self* time: the span's duration minus the time its
// child spans cover. The tuple kernel sits inside ChunkProcessor, which has
// no seam, so its cost is estimated by a replay probe instead
// (ReplayKernelPass) and the remainder of the traced wall time is reported
// as unattributed.
//
// Timing never feeds back into the engine: a traced run must stay
// bit-identical to an untraced one, and the benchmark checks that it does.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/engine.h"
#include "exec/query.h"

namespace scanshare::benchmark {

/// The timed seams. Order is the reporting order.
enum class Layer : size_t {
  kPolicyPlace,
  kPolicyGroup,
  kPolicyThrottle,
  kPolicyHooks,
  kReplacer,
  kIoAcquire,
  kIoBackend,
  kCount,
};

/// Stable metric stem of a layer ("ssm.policy.place", "buffer.replacer").
const char* LayerName(Layer layer);

/// Cumulative self time and call count of one layer.
struct LayerTotals {
  uint64_t self_ns = 0;
  uint64_t calls = 0;
};

/// Collects nested spans in memory; single-threaded like the engine run it
/// observes.
class LayerClock {
 public:
  /// RAII span over one call into a layer.
  class Span {
   public:
    Span(LayerClock* clock, Layer layer) : clock_(clock) {
      clock_->Enter(layer);
    }
    ~Span() { clock_->Exit(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    LayerClock* clock_;
  };

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<size_t>(layer)];
  }

 private:
  struct Frame {
    Layer layer;
    std::chrono::steady_clock::time_point start;
    uint64_t child_ns = 0;
  };

  void Enter(Layer layer);
  void Exit();

  std::vector<Frame> stack_;
  std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> totals_{};
};

/// Runs `streams` in shared mode on an engine assembled like
/// Database::Run (sim backend; push pipeline iff config.io.prefetch_depth >
/// 0), with every seam decorated by `clock`. Supports the configurations
/// the benchmark uses: kShared, no event tracer, no position board.
[[nodiscard]] StatusOr<exec::RunResult> RunTraced(
    exec::Database* db, const exec::RunConfig& config,
    const std::vector<exec::StreamSpec>& streams, LayerClock* clock);

/// Host cost of the columnar tuple kernel for one query template, measured
/// by replaying CompiledPredicate::MatchBatch and Aggregator::ConsumeBatch
/// over every page of the template's table.
struct KernelRate {
  double predicate_ns_per_tuple = 0.0;
  double agg_ns_per_tuple = 0.0;
};

/// Replays `query`'s kernel once over its table's page images (at least
/// 2048 pages, sweeping a small table repeatedly) and returns the per-tuple
/// costs of that pass.
[[nodiscard]] StatusOr<KernelRate> ReplayKernelPass(
    exec::Database* db, const exec::QuerySpec& query);

}  // namespace scanshare::benchmark
