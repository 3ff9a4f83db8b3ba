// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Bridges the engine's ad-hoc stats structs (DiskStats, BufferPoolStats,
// SsmStats, IsmStats, IoPipelineStats, RealIoStats, trace counters) into
// the unified obs::MetricsRegistry so every run exposes one flat, uniformly
// named metric namespace:
//
//   disk.requests, disk.pages_read, ...
//   buffer.hits, buffer.misses, ...
//   ssm.scans_started, ssm.total_wait_us, ...
//   ism.scans_started, ...
//   io.*, real_io.*   (push pipeline / file backend; zero when unused)
//   run.makespan_us
//   trace.<event_kind>, trace.dropped   (only when the run was traced)
//
// The registry readers capture the RunResult by pointer: the result must
// outlive the registry (both are usually stack locals of the same scope).

#pragma once

#include "exec/stream_executor.h"
#include "obs/metrics_registry.h"

namespace scanshare::metrics {

/// Registers every counter of `result` on `registry` under the namespaces
/// above. `result` is captured by pointer and must outlive `registry`.
void RegisterRunMetrics(const exec::RunResult* result,
                        obs::MetricsRegistry* registry);

/// One-call convenience: collect all of `result`'s metrics as a sorted-by-
/// registration-order sample vector.
std::vector<obs::MetricSample> CollectRunMetrics(const exec::RunResult& result);

}  // namespace scanshare::metrics
