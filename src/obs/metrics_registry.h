// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Unified metrics registry. The engine's components each keep an ad-hoc
// stats struct (BufferPoolStats, SsmStats, DiskStats, IsmStats, ...) whose
// fields are read by name all over the benches and tests. The registry
// absorbs them behind one interface: a component (or an adapter — see
// metrics/metrics_export.h) registers named *readers*, and one Collect()
// call samples every counter and gauge in registration order.
//
// Readers are callbacks, not stored values: registration is free of
// copies, a Collect() always sees current counters, and the structs the
// existing tests assert on stay exactly where they are. Names are
// dot-scoped ("buffer.hits", "ssm.throttle_events"); a stats struct's
// names come from its one field list (common/counters.h), registered with
// RegisterCounters.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace scanshare::obs {

/// One sampled metric.
struct MetricSample {
  enum class Type { kCounter, kGauge };
  std::string name;
  Type type = Type::kCounter;
  uint64_t counter = 0;  ///< Valid for kCounter.
  double gauge = 0.0;    ///< Valid for kGauge.
};

/// Named counter/gauge readers, sampled on demand.
///
/// Not thread-safe; confined to the run/report context that owns it.
class MetricsRegistry {
 public:
  using CounterReader = std::function<uint64_t()>;
  using GaugeReader = std::function<double()>;

  /// Registers a monotonic counter. Last registration of a name wins at
  /// Collect() time (re-registering replaces, so per-run adapters can be
  /// rebuilt without duplicate rows).
  void RegisterCounter(std::string name, CounterReader read);

  /// Registers a point-in-time gauge (same replacement semantics).
  void RegisterGauge(std::string name, GaugeReader read);

  /// Registers one counter per entry of `fields` (a counters::Field list,
  /// common/counters.h) under the entry's name, read from `*stats`, in
  /// list order. `stats` is captured by pointer and must outlive the
  /// registry.
  template <typename List, typename S>
  void RegisterCounters(const List& fields, const S* stats) {
    for (const auto& f : fields) {
      RegisterCounter(f.name,
                      [stats, member = f.member] { return stats->*member; });
    }
  }

  /// Samples every registered metric, in first-registration order.
  std::vector<MetricSample> Collect() const;

  /// Registered metric count.
  size_t size() const { return entries_.size(); }

  /// Drops all registrations.
  void Clear() { entries_.clear(); }

 private:
  struct Entry {
    std::string name;
    MetricSample::Type type = MetricSample::Type::kCounter;
    CounterReader counter;
    GaugeReader gauge;
  };

  /// Replaces the entry named `name` or appends a new one.
  Entry* Upsert(std::string name);

  std::vector<Entry> entries_;
};

/// Renders samples as a JSON object {"name": value, ...} in sample order.
std::string MetricsJson(const std::vector<MetricSample>& samples);

}  // namespace scanshare::obs
