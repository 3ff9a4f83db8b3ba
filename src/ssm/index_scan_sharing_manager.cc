#include "ssm/index_scan_sharing_manager.h"

#include <algorithm>
#include <compare>

#include "buffer/policies/page_policies.h"
#include "ssm/placement_policy.h"
#include "ssm/throttle_controller.h"

namespace scanshare::ssm {

namespace {

Status ValidateDescriptor(const IndexScanDescriptor& desc) {
  if (desc.end_key < desc.start_key) {
    return Status::InvalidArgument("StartIndexScan: empty key range");
  }
  if (desc.estimated_blocks == 0) {
    return Status::InvalidArgument(
        "StartIndexScan: estimated_blocks must be positive");
  }
  if (desc.estimated_duration == 0) {
    return Status::InvalidArgument(
        "StartIndexScan: estimated_duration must be positive");
  }
  if (desc.throttle_tolerance < 0.0) {
    return Status::InvalidArgument(
        "StartIndexScan: throttle_tolerance must be non-negative");
  }
  return Status::OK();
}

}  // namespace

IndexScanSharingManager::IndexScanSharingManager(IsmOptions options)
    : options_(options) {}

StatusOr<IndexStartInfo> IndexScanSharingManager::StartIndexScan(
    const IndexScanDescriptor& desc, sim::Micros now) {
  SCANSHARE_RETURN_IF_ERROR(ValidateDescriptor(desc));

  IndexState& index = indexes_[desc.index_id];
  const double est_speed =
      static_cast<double>(desc.estimated_blocks) /
      (static_cast<double>(desc.estimated_duration) / 1e6);

  IndexStartInfo info;

  // Placement (paper §6.2/6.3, simplified to the table-scan paper's
  // candidate set): among ongoing scans whose current location falls in
  // the new scan's key range, pick the one with the best expected-sharing
  // score; with nobody active, harvest the last finished scan's location.
  const bool smart = options_.enable_smart_placement;
  const IndexScanState* best = nullptr;
  double best_score = 0.0;
  if (smart) {
    for (ScanId sid : index.active) {
      const IndexScanState& cand = scans_.at(sid);
      if (!InScanRange(cand.location.key, desc.start_key, desc.end_key)) {
        continue;
      }
      const double score = SharingScore(
          cand.speed_bps, cand.remaining_blocks(), est_speed,
          desc.estimated_blocks, options_.EffectiveThresholdBlocks());
      if (best == nullptr || score > best_score ||
          (score == best_score && cand.id < best->id)) {
        best = &cand;
        best_score = score;
      }
    }
  }

  IndexScanState state;
  state.id = next_id_++;
  state.desc = desc;
  state.speed_bps = est_speed > 0 ? est_speed : 1.0;
  state.started_at = now;
  state.last_update_at = now;

  if (best != nullptr) {
    // Join: start at the ongoing scan's location, inherit its anchor and
    // offset so the partial order covers the pair (paper §6.3 last
    // paragraph). Interesting-location refinement (paper §6.2's envelope
    // trailing edge): a young candidate's blocks are plausibly all still
    // buffered, so start at its *anchor* (its start) and catch up through
    // hits — the wrap tail disappears. Only applicable while the
    // candidate still counts offsets from its own start (never merged).
    const size_t competitors = std::max<size_t>(scans_.size(), 1);
    const bool young =
        best->blocks_processed * competitors <= options_.bufferpool_blocks &&
        best->anchor_offset == best->blocks_processed;
    auto anchor_it = anchors_.find(best->anchor);
    const bool at_anchor = young && anchor_it != anchors_.end() &&
                           InScanRange(anchor_it->second.location.key,
                                       desc.start_key, desc.end_key);
    info.placed = true;
    info.start_location =
        at_anchor ? anchor_it->second.location : best->location;
    info.joined_scan = best->id;
    state.location = info.start_location;
    state.anchor = best->anchor;
    state.anchor_offset = at_anchor ? 0 : best->anchor_offset;
    ++stats_.scans_joined;
  } else {
    // A fresh anchor, at the range begin or — paper §6.3 special case, with
    // nobody active — at the most recently finished scan's leftovers.
    info.placed = smart && index.active.empty() &&
                  index.last_finished.has_value() &&
                  InScanRange(index.last_finished->key, desc.start_key,
                              desc.end_key);
    if (info.placed) info.start_location = *index.last_finished;
    state.location = info.placed ? info.start_location
                                 : IndexScanLocation{desc.start_key, 0};
    state.anchor = next_anchor_++;
    anchors_[state.anchor] = AnchorInfo{state.location, desc.index_id};
  }

  info.id = state.id;
  scans_.emplace(info.id, std::move(state));
  index.active.push_back(info.id);
  Regroup(desc.index_id);
  ++stats_.scans_started;
  return info;
}

void IndexScanSharingManager::Regroup(uint32_t index_id) {
  IndexState& index = indexes_[index_id];
  index.groups.clear();

  // Axis order is (anchor, offset, id): only neighbours sharing an anchor
  // are comparable, so those are the only candidate pairs, and there is
  // no wrap edge.
  struct AxisPoint {
    uint64_t anchor;
    uint64_t offset;
    ScanId id;
    auto operator<=>(const AxisPoint&) const = default;
  };
  std::vector<AxisPoint> axis;
  axis.reserve(index.active.size());
  for (ScanId sid : index.active) {
    const IndexScanState& s = scans_.at(sid);
    axis.push_back(AxisPoint{s.anchor, s.anchor_offset, sid});
  }
  std::sort(axis.begin(), axis.end());
  std::vector<ScanPoint> points;
  points.reserve(axis.size());
  std::vector<GroupEdge> edges;
  for (size_t i = 0; i < axis.size(); ++i) {
    points.push_back(ScanPoint{axis[i].id, axis[i].offset});
    if (i + 1 < axis.size() && axis[i + 1].anchor == axis[i].anchor) {
      edges.push_back(GroupEdge{i, axis[i + 1].offset - axis[i].offset});
    }
  }
  // Equal gaps break ties on the back scan's (offset, id), across anchors.
  std::sort(edges.begin(), edges.end(),
            [&](const GroupEdge& a, const GroupEdge& b) {
              const AxisPoint& pa = axis[a.from];
              const AxisPoint& pb = axis[b.from];
              return pa.offset != pb.offset ? pa.offset < pb.offset
                                            : pa.id < pb.id;
            });
  index.groups =
      MergeAdjacentScans(points, edges, options_.bufferpool_blocks);
  index.group_of.Assign(index.groups);
}

const ScanGroup* IndexScanSharingManager::FindGroup(const IndexState& index,
                                                    ScanId id) const {
  const size_t g = index.group_of.Find(id);
  return g == GroupIndex::kNotFound ? nullptr : &index.groups[g];
}

uint64_t IndexScanSharingManager::OffsetGap(ScanId behind,
                                            ScanId ahead) const {
  const uint64_t from = scans_.at(behind).anchor_offset;
  const uint64_t to = scans_.at(ahead).anchor_offset;
  return to >= from ? to - from : 0;
}

StatusOr<IndexUpdateResult> IndexScanSharingManager::UpdateIndexScan(
    ScanId id, IndexScanLocation location, uint64_t blocks_processed,
    sim::Micros now) {
  auto it = scans_.find(id);
  if (it == scans_.end()) {
    return Status::NotFound("UpdateIndexScan: unknown scan " +
                            std::to_string(id));
  }
  IndexScanState& scan = it->second;
  IndexState& index = indexes_.at(scan.desc.index_id);

  // Windowed speed + offset advance (paper §7.1). The offset moves by the
  // blocks since the previous report, which the speed window may span.
  AdvanceSpeedWindow(blocks_processed, now, &scan.speed_bps,
                     &scan.last_update_at, &scan.blocks_at_last_update);
  if (blocks_processed > scan.blocks_processed) {
    scan.anchor_offset += blocks_processed - scan.blocks_processed;
  }
  scan.location = location;
  scan.blocks_processed = blocks_processed;
  ++stats_.updates;

  IndexUpdateResult result;

  // Anchor-merge rule (paper §7.1): reaching another anchor's location
  // links the orders. The scan adopts that anchor with offset 0 — it is
  // *at* the anchor location, so its distance from it is zero. (The
  // paper's text says "(A's offset)+(B's offset)", which we read as a
  // typo: the offset must measure distance from the new anchor.)
  for (const auto& [anchor_id, anchor] : anchors_) {
    if (anchor_id == scan.anchor) continue;
    if (anchor.index_id != scan.desc.index_id) continue;
    if (anchor.location == location) {
      scan.anchor = anchor_id;
      scan.anchor_offset = 0;
      result.anchor_merged = true;
      ++stats_.anchor_merges;
      break;
    }
  }

  // Garbage-collect anchors nobody references anymore.
  if (result.anchor_merged) {
    std::vector<uint64_t> dead;
    for (const auto& [anchor_id, anchor] : anchors_) {
      bool used = false;
      for (const auto& [sid, s] : scans_) {
        if (s.anchor == anchor_id) {
          used = true;
          break;
        }
      }
      if (!used) dead.push_back(anchor_id);
    }
    for (uint64_t a : dead) anchors_.erase(a);
  }

  Regroup(scan.desc.index_id);

  const ScanGroup* group = FindGroup(index, id);
  if (group == nullptr) return result;

  result.group_size = group->size();
  result.is_leader = group->leader == id;
  result.is_trailer = group->trailer == id;

  // Release priority (paper §7.3): the table-scan rule with a one-block
  // extent — a trailer releases Low once its successor cleared its block.
  buffer::ReleaseContext release;
  release.hints_enabled = options_.enable_priority_hints;
  release.group_size = group->size();
  release.is_leader = result.is_leader;
  release.is_trailer = result.is_trailer;
  release.successor_gap_pages =
      group->size() >= 2 ? OffsetGap(group->trailer, group->members[1]) : 0;
  release.extent_pages = 1;
  result.priority = buffer::DefaultPagePolicy().ReleasePriority(release);

  // Leader throttling and the fairness cap on the offset axis (paper §7.2),
  // with the table-scan rules and a one-block update quantum.
  if (options_.enable_throttling && result.is_leader && group->size() >= 2) {
    const ThrottleDecision decision = ChargeFairnessBudget(
        LeaderWait(OffsetGap(group->trailer, id),
                   options_.EffectiveThresholdBlocks(), /*quantum=*/1,
                   scans_.at(group->trailer).speed_bps,
                   scan.throttling_exhausted, options_.max_wait_per_update),
        FairnessBudget(options_.fairness_cap, scan.desc.throttle_tolerance,
                       scan.desc.estimated_duration),
        &scan.accumulated_wait, &scan.throttling_exhausted);
    result.gap_blocks = decision.gap_pages;
    if (decision.wait > 0) {
      ++stats_.throttle_events;
      stats_.total_wait += decision.wait;
      result.wait = decision.wait;
    }
    if (decision.capped) ++stats_.cap_suppressions;
  }
  return result;
}

Status IndexScanSharingManager::EndIndexScan(ScanId id, sim::Micros now) {
  (void)now;
  auto it = scans_.find(id);
  if (it == scans_.end()) {
    return Status::NotFound("EndIndexScan: unknown scan " + std::to_string(id));
  }
  IndexScanState& scan = it->second;
  IndexState& index = indexes_.at(scan.desc.index_id);
  index.last_finished = scan.location;
  index.active.erase(
      std::remove(index.active.begin(), index.active.end(), id),
      index.active.end());
  const uint64_t anchor = scan.anchor;
  const uint32_t index_id = scan.desc.index_id;
  scans_.erase(it);

  // GC the anchor if it was this scan's alone.
  bool used = false;
  for (const auto& [sid, s] : scans_) {
    if (s.anchor == anchor) {
      used = true;
      break;
    }
  }
  if (!used) anchors_.erase(anchor);

  Regroup(index_id);
  ++stats_.scans_ended;
  return Status::OK();
}

StatusOr<IndexScanState> IndexScanSharingManager::GetScanState(ScanId id) const {
  auto it = scans_.find(id);
  if (it == scans_.end()) {
    return Status::NotFound("GetScanState: unknown scan " + std::to_string(id));
  }
  return it->second;
}

std::vector<ScanGroup> IndexScanSharingManager::GroupsForIndex(
    uint32_t index_id) const {
  auto it = indexes_.find(index_id);
  if (it == indexes_.end()) return {};
  return it->second.groups;
}

size_t IndexScanSharingManager::ActiveScanCount() const { return scans_.size(); }

}  // namespace scanshare::ssm
