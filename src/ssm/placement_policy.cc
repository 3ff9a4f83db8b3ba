#include "ssm/placement_policy.h"

#include <algorithm>
#include <cmath>

namespace scanshare::ssm {

double SharingScore(double cand_speed, uint64_t cand_remaining,
                    double new_speed, uint64_t new_units, uint64_t threshold) {
  const double v_cand = std::max(cand_speed, 1e-9);
  const double v_new = std::max(new_speed, 1e-9);

  // Time until drift exceeds the group distance threshold. With throttling
  // enabled the manager will actively hold the pair together, but a closer
  // speed match still means less throttling (and so less wasted time), so
  // the drift horizon remains the right preference signal.
  const double speed_gap = std::abs(v_new - v_cand);
  const double t_drift = speed_gap < 1e-9
                             ? 1e18
                             : static_cast<double>(threshold) / speed_gap;

  const double t_cand_left = static_cast<double>(cand_remaining) / v_cand;
  const double t_new_total = static_cast<double>(new_units) / v_new;

  const double shared_seconds = std::min({t_drift, t_cand_left, t_new_total});
  return shared_seconds * std::min(v_new, v_cand);
}

sim::PageId AlignStart(sim::PageId page, const ScanDescriptor& desc,
                       uint64_t extent) {
  sim::PageId aligned = page - (page % extent);
  if (aligned < desc.range_first) aligned = desc.range_first;
  if (aligned >= desc.range_end) aligned = desc.range_first;
  return aligned;
}

}  // namespace scanshare::ssm
