#include "ssm/policies/abm_relevance_policy.h"

namespace scanshare::ssm {

size_t AbmRelevancePolicy::RelevanceAt(
    sim::PageId pos, const std::vector<const ScanState*>& active,
    const ScanCircle& circle) const {
  const uint64_t threshold = options_.EffectiveDistanceThreshold();
  size_t nearby = 0;
  for (const ScanState* s : active) {
    const uint64_t ahead = circle.ForwardDistance(pos, s->position);
    const uint64_t behind = circle.ForwardDistance(s->position, pos);
    if (ahead <= threshold || behind <= threshold) ++nearby;
  }
  return nearby;
}

Placement AbmRelevancePolicy::Place(
    const ScanDescriptor& desc, double est_speed_pps,
    const std::vector<const ScanState*>& active, size_t total_active_scans,
    std::optional<sim::PageId> last_finished_pos,
    const ScanCircle& circle) const {
  (void)est_speed_pps;
  (void)total_active_scans;
  Placement placement;
  placement.start_page = desc.range_first;
  if (!options_.enable_smart_placement) return placement;

  // Candidate = an ongoing scan whose position falls inside the new scan's
  // range; its relevance = cluster size around it. Highest relevance wins
  // (the pages read there feed the most scans at once); ties prefer the
  // most starved candidate (largest remaining work — sharing helps it for
  // the longest), then the smaller id for determinism.
  const sim::PageId last = desc.range_end - 1;
  const uint64_t extent = options_.EffectiveExtent();
  const ScanState* best = nullptr;
  size_t best_relevance = 0;
  for (const ScanState* cand : active) {
    if (!InScanRange(cand->position, desc.range_first, last)) continue;
    const size_t relevance = RelevanceAt(cand->position, active, circle);
    const bool better =
        best == nullptr || relevance > best_relevance ||
        (relevance == best_relevance &&
         (cand->remaining_pages() > best->remaining_pages() ||
          (cand->remaining_pages() == best->remaining_pages() &&
           cand->id < best->id)));
    if (better) {
      best = cand;
      best_relevance = relevance;
    }
  }

  if (best != nullptr) {
    placement.start_page = AlignStart(best->position, desc, extent);
    placement.joined_scan = best->id;
    placement.expected_shared_pages = static_cast<double>(best_relevance);
    return placement;
  }

  // Nobody active: harvest the last finished scan's leftovers (the pages
  // around its final position are the only possibly-warm ones — serving
  // from them is the relevance-maximal start here too).
  if (last_finished_pos.has_value() &&
      InScanRange(*last_finished_pos, desc.range_first, last)) {
    placement.start_page = AlignStart(*last_finished_pos, desc, extent);
  }
  return placement;
}

std::vector<ScanGroup> AbmRelevancePolicy::Group(
    const std::vector<ScanPoint>& points, const ScanCircle& circle) const {
  return BuildScanGroups(points, circle, options_.bufferpool_pages);
}

ThrottleDecision AbmRelevancePolicy::Throttle(const ScanState& scan,
                                              const ScanGroup& group,
                                              const ScanState& trailer,
                                              const ScanCircle& circle) const {
  (void)scan;
  (void)group;
  (void)trailer;
  (void)circle;
  return ThrottleDecision{};  // ABM never slows a scan down.
}

}  // namespace scanshare::ssm
