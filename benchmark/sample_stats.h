// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Order statistics for repeated host-time samples.

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace scanshare::benchmark {

/// Linearly interpolated quantile q in [0, 1] of `samples` (the "inclusive"
/// method: q = 0 is the minimum, q = 1 the maximum). 0 when empty.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

}  // namespace scanshare::benchmark
