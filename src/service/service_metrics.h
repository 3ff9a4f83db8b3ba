// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Bridges a ServiceResult into the unified obs::MetricsRegistry, the same
// way metrics/metrics_export.h bridges RunResult. Namespaces:
//
//   service.arrived, service.admitted, service.queued, service.shed,
//   service.shed_global_cap, service.shed_table_cap,
//   service.admitted_from_queue, service.released,
//   service.max_queue_depth, service.max_running,
//   service.completed, service.steps, service.makespan_us   (counters)
//   disk.*, buffer.*, ssm.*, ism.*, io.*, real_io.*   (engine counters,
//                                                      as in the run registry)
//   service.sojourn_p50_us / _p99_us / _p999_us / _max_us / _mean_us,
//   service.queue_wait_p50_us / _p99_us / _p999_us          (gauges)
//
// Readers capture the ServiceResult by pointer: it must outlive the
// registry (both are usually stack locals of the same scope).

#pragma once

#include "obs/metrics_registry.h"
#include "service/scan_service.h"

namespace scanshare::service {

/// Registers every admission counter and latency quantile of `result` on
/// `registry` under the "service." namespace, and its engine counters
/// through metrics::RegisterEngineMetrics.
void RegisterServiceMetrics(const ServiceResult* result,
                            obs::MetricsRegistry* registry);

/// One-call convenience: collect all of `result`'s service metrics.
std::vector<obs::MetricSample> CollectServiceMetrics(
    const ServiceResult& result);

}  // namespace scanshare::service
