#include "service/service_metrics.h"

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

  field("service.arrived", &result->admission.arrived);
  field("service.admitted", &result->admission.admitted);
  field("service.queued", &result->admission.queued);
  field("service.shed", &result->admission.shed);
  field("service.shed_global_cap", &result->admission.shed_global_cap);
  field("service.shed_table_cap", &result->admission.shed_table_cap);
  field("service.admitted_from_queue", &result->admission.admitted_from_queue);
  field("service.released", &result->admission.released);
  field("service.max_queue_depth", &result->admission.max_queue_depth);
  field("service.max_running", &result->admission.max_running);
  field("service.completed", &result->sojourn.count);
  field("service.steps", &result->steps);
  field("service.makespan_us", &result->makespan);

  io::RegisterIoMetrics(&result->io, &result->real_io, registry);

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
