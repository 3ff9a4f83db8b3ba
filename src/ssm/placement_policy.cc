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

Placement PlacementPolicy::Choose(const ScanDescriptor& desc,
                                  double est_speed_pps,
                                  const std::vector<const ScanState*>& active,
                                  size_t total_active_scans,
                                  std::optional<sim::PageId> last_finished_pos,
                                  const ScanCircle& circle) const {
  (void)circle;
  Placement placement;
  placement.start_page = desc.range_first;
  if (!options_.enable_smart_placement) return placement;

  const sim::PageId last = desc.range_end - 1;
  const uint64_t extent = options_.EffectiveExtent();
  const uint64_t threshold = options_.EffectiveDistanceThreshold();
  const ScanState* best = nullptr;
  double best_score = 0.0;
  for (const ScanState* cand : active) {
    if (!InScanRange(cand->position, desc.range_first, last)) continue;
    const double score =
        SharingScore(cand->speed_pps, cand->remaining_pages(), est_speed_pps,
                     desc.estimated_pages, threshold);
    // Deterministic tie-break: earlier-started (smaller id) wins.
    if (best == nullptr || score > best_score ||
        (score == best_score && cand->id < best->id)) {
      best = cand;
      best_score = score;
    }
  }

  if (best != nullptr) {
    // Interesting-location refinement (paper §6.2's envelope trailing
    // edge): if the candidate is young enough that everything it has read
    // plausibly still sits in the pool, start at the candidate's *start*
    // instead of its current position — the new scan catches up through
    // buffer hits and the wrap-around tail (which would be re-read cold)
    // shrinks or disappears. "Plausibly resident" must account for pool
    // churn from every concurrent scan, approximated as candidate
    // progress x active scan count.
    const size_t competitors = std::max<size_t>(total_active_scans, 1);
    const bool young =
        best->pages_processed * competitors <= options_.bufferpool_pages &&
        InScanRange(best->start_page, desc.range_first, last);
    placement.start_page =
        AlignStart(young ? best->start_page : best->position, desc, extent);
    placement.joined_scan = best->id;
    placement.expected_shared_pages = best_score;
    return placement;
  }

  // Paper's special case: nobody active — reuse the last finished scan's
  // leftovers if its final position falls inside our range.
  if (last_finished_pos.has_value() &&
      InScanRange(*last_finished_pos, desc.range_first, last)) {
    placement.start_page = AlignStart(*last_finished_pos, desc, extent);
  }
  return placement;
}

}  // namespace scanshare::ssm
