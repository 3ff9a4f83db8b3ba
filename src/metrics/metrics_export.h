// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Bridges the engine's stats structs (DiskStats, BufferPoolStats,
// SsmStats, IsmStats, IoPipelineStats, RealIoStats, trace counters) into
// the unified obs::MetricsRegistry so every run exposes one flat, uniformly
// named metric namespace:
//
//   run.makespan_us
//   disk.*, buffer.*, ssm.*, ism.*   (names from each struct's field list)
//   io.*, real_io.*   (push pipeline / file backend; zero when unused)
//   buffer.hit_ratio   (gauge)
//   trace.<event_kind>, trace.dropped   (only when the run was traced)
//
// The registry readers capture the RunResult by pointer: the result must
// outlive the registry (both are usually stack locals of the same scope).

#pragma once

#include "exec/stream_executor.h"
#include "obs/metrics_registry.h"

namespace scanshare::metrics {

/// Registers the six engine counter structs of `result` — any result with
/// `disk`, `buffer`, `ssm`, `ism`, `io` and `real_io` members
/// (exec::RunResult, service::ServiceResult) — in that order, each through
/// its field list. `result` is captured by pointer and must outlive
/// `registry`.
template <typename Result>
void RegisterEngineMetrics(const Result* result,
                           obs::MetricsRegistry* registry) {
  registry->RegisterCounters(sim::kDiskStatsCounters, &result->disk);
  registry->RegisterCounters(buffer::kBufferPoolStatsCounters,
                             &result->buffer);
  registry->RegisterCounters(ssm::kSsmStatsCounters, &result->ssm);
  registry->RegisterCounters(ssm::kIsmStatsCounters, &result->ism);
  registry->RegisterCounters(io::kIoPipelineStatsCounters, &result->io);
  registry->RegisterCounters(io::kRealIoStatsCounters, &result->real_io);
}

/// Registers every counter of `result` on `registry` under the namespaces
/// above. `result` is captured by pointer and must outlive `registry`.
void RegisterRunMetrics(const exec::RunResult* result,
                        obs::MetricsRegistry* registry);

/// One-call convenience: collect all of `result`'s metrics as a sorted-by-
/// registration-order sample vector.
std::vector<obs::MetricSample> CollectRunMetrics(const exec::RunResult& result);

}  // namespace scanshare::metrics
