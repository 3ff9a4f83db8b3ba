#include "ssm/policies/group_throttle_policy.h"

#include <algorithm>

namespace scanshare::ssm {

Placement GroupThrottlePolicy::Place(
    const ScanDescriptor& desc, double est_speed_pps,
    const std::vector<const ScanState*>& active, size_t total_active_scans,
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

std::vector<ScanGroup> GroupThrottlePolicy::Group(
    const std::vector<ScanPoint>& points, const ScanCircle& circle) const {
  return BuildScanGroups(points, circle, options_.bufferpool_pages);
}

ThrottleDecision GroupThrottlePolicy::Throttle(const ScanState& scan,
                                               const ScanGroup& group,
                                               const ScanState& trailer,
                                               const ScanCircle& circle) const {
  if (!options_.enable_throttling) return {};
  if (group.size() < 2) return {};          // Nobody to wait for.
  if (scan.id != group.leader) return {};   // Only leaders slow down.
  if (scan.id == trailer.id) return {};
  // EffectiveExtent (not the raw field) so a zero-extent config keeps the
  // one-page quantum the alignment paths already assume.
  const uint64_t gap =
      circle.ForwardDistance(trailer.position, scan.position);
  return LeaderWait(gap, options_.EffectiveDistanceThreshold(),
                    options_.EffectiveExtent(), trailer.speed_pps,
                    scan.throttling_exhausted, options_.max_wait_per_update);
}

}  // namespace scanshare::ssm
