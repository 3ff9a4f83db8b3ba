// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Lightweight statistics helpers shared by the metrics module and the
// benchmark harnesses: time-bucketed counter series (the substrate for the
// paper's "reads over time" / "seeks over time" figures) and the report
// formatters.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scanshare {

/// A counter series bucketed by (virtual) time, e.g. "KB read per second".
///
/// Used to regenerate the paper's Figure-17/18-style plots: each call to
/// Add(t, amount) accumulates `amount` into the bucket containing time `t`.
class TimeSeries {
 public:
  /// `bucket_width` is in the same unit as the timestamps (microseconds in
  /// this codebase) and must be positive.
  explicit TimeSeries(uint64_t bucket_width) : width_(bucket_width) {}

  /// Accumulates `amount` into the bucket containing timestamp `t`.
  void Add(uint64_t t, double amount) {
    const size_t idx = static_cast<size_t>(t / width_);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0.0);
    buckets_[idx] += amount;
  }

  /// Value accumulated in bucket `i` (0 if never touched).
  double bucket(size_t i) const { return i < buckets_.size() ? buckets_[i] : 0.0; }
  /// Number of buckets spanned so far.
  size_t num_buckets() const { return buckets_.size(); }
  /// Bucket width in timestamp units.
  uint64_t bucket_width() const { return width_; }
  /// Sum over all buckets.
  double total() const;
  /// Raw bucket vector (for printing).
  const std::vector<double>& buckets() const { return buckets_; }

 private:
  uint64_t width_;
  std::vector<double> buckets_;
};

/// Formats a count of microseconds as a human-readable duration string.
std::string FormatMicros(uint64_t micros);

/// Formats a fraction (0.21 -> "21.0%").
std::string FormatPercent(double fraction);

}  // namespace scanshare
