#include "common/stats.h"

#include <cstdio>

namespace scanshare {

double TimeSeries::total() const {
  double sum = 0.0;
  for (double b : buckets_) sum += b;
  return sum;
}

std::string FormatMicros(uint64_t micros) {
  char buf[64];
  if (micros < 1000) {
    std::snprintf(buf, sizeof(buf), "%lluus", static_cast<unsigned long long>(micros));
  } else if (micros < 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(micros) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", static_cast<double>(micros) / 1e6);
  }
  return buf;
}

std::string FormatPercent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace scanshare
