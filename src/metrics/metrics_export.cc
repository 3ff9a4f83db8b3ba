#include "metrics/metrics_export.h"

#include <string>

namespace scanshare::metrics {

void RegisterRunMetrics(const exec::RunResult* result,
                        obs::MetricsRegistry* registry) {
  const exec::RunResult* r = result;
  auto field = [&](const char* name, const uint64_t* value) {
    registry->RegisterCounter(name, [value] { return *value; });
  };

  field("run.makespan_us", &r->makespan);

  field("disk.requests", &r->disk.requests);
  field("disk.pages_read", &r->disk.pages_read);
  field("disk.bytes_read", &r->disk.bytes_read);
  field("disk.seeks", &r->disk.seeks);
  field("disk.busy_us", &r->disk.busy_micros);
  field("disk.queue_wait_us", &r->disk.queue_wait_micros);

  field("buffer.logical_reads", &r->buffer.logical_reads);
  field("buffer.hits", &r->buffer.hits);
  field("buffer.misses", &r->buffer.misses);
  field("buffer.physical_pages", &r->buffer.physical_pages);
  field("buffer.io_requests", &r->buffer.io_requests);
  field("buffer.evictions", &r->buffer.evictions);
  field("buffer.prefetch_hits", &r->buffer.prefetch_hits);
  field("buffer.partitions", &r->buffer.partitions);
  field("buffer.partitions_requested", &r->buffer.partitions_requested);

  field("ssm.scans_started", &r->ssm.scans_started);
  field("ssm.scans_joined", &r->ssm.scans_joined);
  field("ssm.scans_ended", &r->ssm.scans_ended);
  field("ssm.updates", &r->ssm.updates);
  field("ssm.regroups", &r->ssm.regroups);
  field("ssm.throttle_events", &r->ssm.throttle_events);
  field("ssm.total_wait_us", &r->ssm.total_wait);
  field("ssm.cap_suppressions", &r->ssm.cap_suppressions);

  field("ism.scans_started", &r->ism.scans_started);
  field("ism.scans_joined", &r->ism.scans_joined);
  field("ism.scans_ended", &r->ism.scans_ended);
  field("ism.updates", &r->ism.updates);
  field("ism.throttle_events", &r->ism.throttle_events);
  field("ism.total_wait_us", &r->ism.total_wait);
  field("ism.anchor_merges", &r->ism.anchor_merges);
  field("ism.cap_suppressions", &r->ism.cap_suppressions);

  io::RegisterIoMetrics(&r->io, &r->real_io, registry);

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
