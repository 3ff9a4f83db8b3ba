#include "metrics/metrics_export.h"

#include <string>

namespace scanshare::metrics {

void RegisterRunMetrics(const exec::RunResult* result,
                        obs::MetricsRegistry* registry) {
  const exec::RunResult* r = result;
  registry->RegisterCounter("run.makespan_us", [r] { return r->makespan; });
  RegisterEngineMetrics(r, registry);

  // Hit ratio as a derived gauge — the number every buffer-locality plot in
  // the paper is ultimately about.
  registry->RegisterGauge("buffer.hit_ratio", [r] {
    return r->buffer.logical_reads > 0
               ? static_cast<double>(r->buffer.hits) /
                     static_cast<double>(r->buffer.logical_reads)
               : 0.0;
  });

  if (r->trace != nullptr) {
    for (size_t k = 0; k < obs::kNumEventKinds; ++k) {
      const auto kind = static_cast<obs::EventKind>(k);
      registry->RegisterCounter(std::string("trace.") + obs::EventKindName(kind),
                                [r, kind] { return r->trace->count(kind); });
    }
    registry->RegisterCounter("trace.dropped",
                              [r] { return r->trace->dropped(); });
  }
}

std::vector<obs::MetricSample> CollectRunMetrics(const exec::RunResult& result) {
  obs::MetricsRegistry registry;
  RegisterRunMetrics(&result, &registry);
  return registry.Collect();
}

}  // namespace scanshare::metrics
