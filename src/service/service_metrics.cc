#include "service/service_metrics.h"

#include "metrics/metrics_export.h"

namespace scanshare::service {

void RegisterServiceMetrics(const ServiceResult* result,
                            obs::MetricsRegistry* registry) {
  const auto field = [&](const char* name, const uint64_t* value) {
    registry->RegisterCounter(name, [value] { return *value; });
  };
  const auto micros = [&](const char* name, const uint64_t* value) {
    registry->RegisterGauge(name,
                            [value] { return static_cast<double>(*value); });
  };

  registry->RegisterCounters(kAdmissionStatsCounters, &result->admission);
  field("service.completed", &result->sojourn.count);
  field("service.steps", &result->steps);
  field("service.makespan_us", &result->makespan);

  metrics::RegisterEngineMetrics(result, registry);

  micros("service.sojourn_p50_us", &result->sojourn.p50);
  micros("service.sojourn_p99_us", &result->sojourn.p99);
  micros("service.sojourn_p999_us", &result->sojourn.p999);
  micros("service.sojourn_max_us", &result->sojourn.max);
  registry->RegisterGauge("service.sojourn_mean_us",
                          [result] { return result->sojourn.mean; });
  micros("service.queue_wait_p50_us", &result->queue_wait.p50);
  micros("service.queue_wait_p99_us", &result->queue_wait.p99);
  micros("service.queue_wait_p999_us", &result->queue_wait.p999);
}

std::vector<obs::MetricSample> CollectServiceMetrics(
    const ServiceResult& result) {
  obs::MetricsRegistry registry;
  RegisterServiceMetrics(&result, &registry);
  return registry.Collect();
}

}  // namespace scanshare::service
