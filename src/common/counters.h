// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// One field list per counter struct. Each engine stats struct (DiskStats,
// BufferPoolStats, SsmStats, IsmStats, IoPipelineStats, RealIoStats,
// AdmissionStats, ScanMetrics) is followed by a constexpr array of
// {registry name, member pointer} in registry order, and that array is
// the only place its counters are enumerated: the metrics registry
// (obs::MetricsRegistry::RegisterCounters) and metrics::BitIdentical
// walk it. A static_assert on
// Covers() next to each list fails the build when a counter is added to
// the struct but not to its list.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace scanshare::counters {

/// One counter of struct S: its registry name and where it lives.
template <typename S>
struct Field {
  const char* name;
  uint64_t S::*member;
};

/// True iff `fields` names distinct members whose uint64_t counters fill
/// exactly `counter_bytes` bytes: sizeof(S) for a struct of counters only,
/// the offset of the first non-counter member otherwise.
template <typename List>
constexpr bool Covers(const List& fields, size_t counter_bytes) {
  const size_t n = std::size(fields);
  if (n * sizeof(uint64_t) != counter_bytes) return false;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (fields[i].member == fields[j].member) return false;
    }
  }
  return true;
}

/// Name of the first listed counter on which `a` and `b` differ, or
/// nullptr when every listed counter is equal.
template <typename List, typename S>
const char* FirstDiff(const List& fields, const S& a, const S& b) {
  for (const auto& f : fields) {
    if (a.*f.member != b.*f.member) return f.name;
  }
  return nullptr;
}

}  // namespace scanshare::counters
