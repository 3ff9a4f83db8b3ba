#include "ssm/scan_sharing_manager.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "ssm/policies/group_throttle_policy.h"
#include "ssm/throttle_controller.h"

namespace scanshare::ssm {

namespace {

Status ValidateDescriptor(const ScanDescriptor& desc) {
  if (desc.table_end <= desc.table_first) {
    return Status::InvalidArgument("StartScan: empty table span");
  }
  if (desc.range_first < desc.table_first || desc.range_end > desc.table_end ||
      desc.range_end <= desc.range_first) {
    return Status::InvalidArgument("StartScan: scan range outside table span");
  }
  if (desc.estimated_pages == 0) {
    return Status::InvalidArgument("StartScan: estimated_pages must be positive");
  }
  if (desc.estimated_duration == 0) {
    return Status::InvalidArgument(
        "StartScan: estimated_duration must be positive");
  }
  if (desc.throttle_tolerance < 0.0) {
    return Status::InvalidArgument(
        "StartScan: throttle_tolerance must be non-negative");
  }
  return Status::OK();
}

/// An invariant violation the audit found on table `table_id`.
Status AuditFailure(uint32_t table_id, const std::string& what) {
  return Status::Internal("audit: table " + std::to_string(table_id) + ": " +
                          what);
}

}  // namespace

ScanSharingManager::ScanSharingManager(SsmOptions options)
    : ScanSharingManager(options, nullptr, nullptr) {}

ScanSharingManager::ScanSharingManager(
    SsmOptions options, std::shared_ptr<SharingPolicy> sharing,
    std::shared_ptr<const buffer::PagePolicy> page)
    : options_(options),
      sharing_policy_(std::move(sharing)),
      page_policy_(std::move(page)) {
  if (sharing_policy_ == nullptr) {
    sharing_policy_ = std::make_shared<GroupThrottlePolicy>(options_);
  }
  if (page_policy_ == nullptr) {
    page_policy_ = buffer::MakePagePolicy(PolicyKind::kGroupThrottle, nullptr);
  }
}

StatusOr<StartInfo> ScanSharingManager::StartScan(const ScanDescriptor& desc,
                                                  sim::Micros now) {
  SCANSHARE_RETURN_IF_ERROR(ValidateDescriptor(desc));
  TableState& table = tables_[desc.table_id];
  table.id = desc.table_id;
  if (!table.circle.has_value()) {
    table.circle.emplace(desc.table_first, desc.table_end);
  } else if (table.circle->first() != desc.table_first ||
             table.circle->end() != desc.table_end) {
    return Status::InvalidArgument(
        "StartScan: table span disagrees with earlier scans of table " +
        std::to_string(desc.table_id));
  }

  const double est_speed_pps =
      static_cast<double>(desc.estimated_pages) /
      (static_cast<double>(desc.estimated_duration) / 1e6);

  std::vector<const ScanState*> active;
  active.reserve(table.active.size());
  for (const ScanPoint& p : table.active) active.push_back(&scans_.at(p.id));
  const Placement placement =
      sharing_policy_->Place(desc, est_speed_pps, active, scans_.size(),
                             table.last_finished_pos, *table.circle);

  ScanState state;
  state.id = next_id_++;
  state.desc = desc;
  state.start_page = placement.start_page;
  state.joined_scan = placement.joined_scan;
  state.position = placement.start_page;
  state.speed_pps = est_speed_pps > 0 ? est_speed_pps : 1.0;
  state.started_at = now;
  state.last_update_at = now;

  const ScanId id = state.id;
  scans_.emplace(id, std::move(state));
  const ScanPoint entry{id, placement.start_page};
  table.active.insert(std::upper_bound(table.active.begin(),
                                       table.active.end(), entry,
                                       CircleOrderLess),
                      entry);
  sharing_policy_->OnScanStarted(scans_.at(id));
  SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kScanAdmit, now, id,
                        placement.start_page, desc.table_id);
  if (placement.joined_scan != kInvalidScanId) {
    SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kScanJoin, now, id,
                          placement.joined_scan);
  }
  if (options_.adaptive_regroup) {
    InsertScanIncremental(&table, id);
  } else {
    Regroup(&table, now);
  }

  ++stats_.scans_started;
  if (placement.joined_scan != kInvalidScanId) ++stats_.scans_joined;
  SCANSHARE_AUDIT_OK(CheckInvariants());
  return StartInfo{id, placement.start_page, placement.joined_scan};
}

void ScanSharingManager::Regroup(TableState* table, sim::Micros now) {
  ResortMoved(table);
  table->updates_since_regroup = 0;
  const bool grouped = !table->active.empty() && table->circle.has_value();
  if (grouped) {
    table->groups = sharing_policy_->Group(table->active, *table->circle);
  } else {
    table->groups.clear();
  }
  table->group_of.Assign(table->groups);
  if (!grouped) return;
  SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kRegroup, now, table->id,
                        table->groups.size(), table->active.size());
  ++stats_.regroups;
}

void ScanSharingManager::ResortMoved(TableState* table) {
  std::vector<ScanPoint>& moved = table->moved;
  if (moved.empty()) return;
  std::vector<ScanPoint>& active = table->active;
  // A scan that moved more than once since the last regroup has one note
  // per move. Only its first note equals its entry in `active` (a later one
  // too if it had moved back there), so keep the notes that name an entry,
  // once each.
  const auto names_no_entry = [&active](const ScanPoint& m) {
    const auto it =
        std::lower_bound(active.begin(), active.end(), m, CircleOrderLess);
    return it == active.end() || it->id != m.id || it->position != m.position;
  };
  moved.erase(std::remove_if(moved.begin(), moved.end(), names_no_entry),
              moved.end());
  std::sort(moved.begin(), moved.end(), CircleOrderLess);
  moved.erase(std::unique(moved.begin(), moved.end(),
                          [](const ScanPoint& a, const ScanPoint& b) {
                            return a.id == b.id;
                          }),
              moved.end());
  // The stale entries sit in `active` in the order of `moved`, so one pass
  // drops them.
  auto stale = moved.begin();
  size_t kept = 0;
  for (const ScanPoint& entry : active) {
    if (stale != moved.end() && entry.id == stale->id) {
      ++stale;
    } else {
      active[kept++] = entry;
    }
  }
  active.resize(kept);
  for (ScanPoint& m : moved) m.position = scans_.at(m.id).position;
  std::sort(moved.begin(), moved.end(), CircleOrderLess);
  table->scratch.clear();
  std::merge(active.begin(), active.end(), moved.begin(), moved.end(),
             std::back_inserter(table->scratch), CircleOrderLess);
  active.swap(table->scratch);
  moved.clear();
}

void ScanSharingManager::InsertScanIncremental(TableState* table, ScanId id) {
  // The geometry audit stays satisfiable at updates_since_regroup == 0: a
  // singleton trivially has extent 0 and every other group is untouched.
  ScanGroup group;
  group.members.push_back(id);
  group.trailer = id;
  group.leader = id;
  table->groups.push_back(std::move(group));
  table->group_of.Add(id, table->groups.size() - 1);
}

void ScanSharingManager::RemoveScanIncremental(TableState* table, ScanId id) {
  const size_t gi = table->group_of.Find(id);
  if (gi == GroupIndex::kNotFound) return;
  table->group_of.Remove(id);
  ScanGroup& group = table->groups[gi];
  group.members.erase(
      std::remove(group.members.begin(), group.members.end(), id),
      group.members.end());
  if (group.members.empty()) {
    table->groups.erase(table->groups.begin() +
                        static_cast<std::ptrdiff_t>(gi));
    // Every later group moved down one index.
    for (size_t g = gi; g < table->groups.size(); ++g) {
      for (ScanId member : table->groups[g].members) {
        table->group_of.Add(member, g);
      }
    }
  } else {
    // Member order was circle order from the old trailer; removing any
    // member preserves it relative to the surviving front member, so
    // promoting front/back and refreshing the extent keeps the grouping
    // geometry-audit-clean.
    group.trailer = group.members.front();
    group.leader = group.members.back();
    group.extent_pages =
        group.members.size() >= 2 && table->circle.has_value()
            ? table->circle->ForwardDistance(scans_.at(group.trailer).position,
                                             scans_.at(group.leader).position)
            : 0;
  }
}

const ScanGroup* ScanSharingManager::FindGroup(const TableState& table,
                                               ScanId id) {
  const size_t g = table.group_of.Find(id);
  return g == GroupIndex::kNotFound ? nullptr : &table.groups[g];
}

StatusOr<UpdateResult> ScanSharingManager::UpdateLocation(ScanId id,
                                                          sim::PageId position,
                                                          uint64_t pages_processed,
                                                          sim::Micros now) {
  auto it = scans_.find(id);
  if (it == scans_.end()) {
    return Status::NotFound("UpdateLocation: unknown scan " +
                            std::to_string(id));
  }
  ScanState& scan = it->second;
  TableState& table = tables_.at(scan.desc.table_id);
  if (!table.circle->Contains(position)) {
    return Status::InvalidArgument("UpdateLocation: position off table");
  }

  // Throttle waits show up as slow updates and therefore as reduced
  // measured speed — that is intentional and matches the prototype: a
  // throttled leader "looks" slower, which stabilizes the group.
  AdvanceSpeedWindow(pages_processed, now, &scan.speed_pps,
                     &scan.last_update_at, &scan.pages_at_last_update);
  if (position != scan.position) {
    // The active list still files the scan under its old position; the
    // next regroup re-sorts it (ResortMoved).
    table.moved.push_back(ScanPoint{id, scan.position});
  }
  scan.position = position;
  scan.pages_processed = pages_processed;
  sharing_policy_->OnLocationUpdate(scan);
  ++stats_.updates;

  const bool regrouped =
      ++table.updates_since_regroup >=
      options_.EffectiveRegroupInterval(table.active.size());
  if (regrouped) Regroup(&table, now);

  UpdateResult result;
  const ScanGroup* group = FindGroup(table, id);
  if (group == nullptr) {
    SCANSHARE_AUDIT_OK(CheckTableInvariants(table));
    return result;
  }

  result.group_size = group->size();
  result.is_leader = group->leader == id;
  result.is_trailer = group->trailer == id;
  result.priority =
      page_policy_->ReleasePriority(MakeReleaseContext(id, table, *group));

  // Role-transition events: emitted only when a scan *becomes* leader or
  // trailer of a group of >= 2, not on every update.
  const GroupRole role = group->size() < 2 ? GroupRole::kNone
                         : result.is_leader ? GroupRole::kLeader
                         : result.is_trailer ? GroupRole::kTrailer
                                             : GroupRole::kInner;
  if (role != scan.last_role) {
    if (role == GroupRole::kLeader) {
      SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kScanLeader, now, id,
                            group->size());
    } else if (role == GroupRole::kTrailer) {
      SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kScanTrailer, now, id,
                            group->size());
    }
    scan.last_role = role;
  }

  if (result.is_leader && group->size() >= 2) {
    const ScanState& trailer = scans_.at(group->trailer);
    // Fairness (paper: 80 % rule) applies to any policy's decision.
    const ThrottleDecision decision = ChargeFairnessBudget(
        sharing_policy_->Throttle(scan, *group, trailer, *table.circle),
        FairnessBudget(options_.fairness_cap, scan.desc.throttle_tolerance,
                       scan.desc.estimated_duration),
        &scan.accumulated_wait, &scan.throttling_exhausted);
    result.gap_pages = decision.gap_pages;
    if (decision.wait > 0) {
      ++stats_.throttle_events;
      stats_.total_wait += decision.wait;
      result.wait = decision.wait;
      SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kThrottleInsert, now, id,
                            decision.wait, decision.gap_pages,
                            /*dur=*/decision.wait);
    }
    if (decision.capped) {
      ++stats_.cap_suppressions;
      SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kCapSuppress, now, id,
                            decision.gap_pages);
    }
  }
  SCANSHARE_AUDIT_OK(regrouped ? CheckTableInvariants(table)
                               : CheckUpdateInvariants(table, scan));
  return result;
}

Status ScanSharingManager::EndScan(ScanId id, sim::Micros now) {
  auto it = scans_.find(id);
  if (it == scans_.end()) {
    return Status::NotFound("EndScan: unknown scan " + std::to_string(id));
  }
  ScanState& scan = it->second;
  TableState& table = tables_.at(scan.desc.table_id);
  sharing_policy_->OnScanEnded(id, scan.position);
  table.last_finished_pos = scan.position;
  SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kScanEnd, now, id,
                        scan.position, scan.accumulated_wait);
  // The list files the scan wherever the last regroup left it, so the
  // entry is found by id; the scan's move notes go with it.
  const auto is_scan = [id](const ScanPoint& p) { return p.id == id; };
  const auto entry =
      std::find_if(table.active.begin(), table.active.end(), is_scan);
  assert(entry != table.active.end());
  table.active.erase(entry);
  std::erase_if(table.moved, is_scan);
  if (options_.adaptive_regroup) {
    // Splice the member out while its group-mates' positions are still
    // readable, then drop the registration.
    RemoveScanIncremental(&table, id);
    scans_.erase(it);
  } else {
    scans_.erase(it);
    Regroup(&table, now);
  }
  ++stats_.scans_ended;
  SCANSHARE_AUDIT_OK(CheckInvariants());
  return Status::OK();
}

Status ScanSharingManager::CheckFairness(const ScanState& scan) const {
  const double cap =
      FairnessBudget(options_.fairness_cap, scan.desc.throttle_tolerance,
                     scan.desc.estimated_duration);
  if (static_cast<double>(scan.accumulated_wait) > cap) {
    return AuditFailure(scan.desc.table_id,
                        "scan " + std::to_string(scan.id) + " accumulated " +
                            std::to_string(scan.accumulated_wait) +
                            "us of throttle wait, above its fairness cap");
  }
  return Status::OK();
}

Status ScanSharingManager::CheckGroup(
    const TableState& table, size_t g, std::span<const ScanId> members) const {
  const ScanGroup& group = table.groups[g];
  if (group.members.empty()) return AuditFailure(table.id, "empty group");
  if (group.trailer != group.members.front() ||
      group.leader != group.members.back()) {
    return AuditFailure(table.id,
                        "group trailer/leader disagree with member order");
  }
  for (ScanId member : members) {
    auto it = scans_.find(member);
    if (it == scans_.end() || it->second.desc.table_id != table.id) {
      return AuditFailure(table.id, "group member " + std::to_string(member) +
                                        " is not an active scan");
    }
    if (table.group_of.Find(member) != g) {
      return AuditFailure(table.id,
                          "group_of disagrees with group membership for scan " +
                              std::to_string(member));
    }
  }
  return Status::OK();
}

Status ScanSharingManager::CheckTableInvariants(const TableState& table) const {
  const uint32_t table_id = table.id;

  // Where the list files each scan moved since the last regroup: its
  // first move note (emplace keeps the first).
  std::unordered_map<ScanId, sim::PageId> filed_at;
  for (const ScanPoint& m : table.moved) filed_at.emplace(m.id, m.position);

  // The active list is strictly in circle order, names each registered
  // scan of this table once, and files it under its current position —
  // or, if it moved since the last regroup, under its stale one.
  std::unordered_set<ScanId> on_list;
  size_t stale_entries = 0;
  for (size_t i = 0; i < table.active.size(); ++i) {
    const ScanPoint& entry = table.active[i];
    const std::string name = "scan " + std::to_string(entry.id);
    if (i > 0 && !CircleOrderLess(table.active[i - 1], entry)) {
      return AuditFailure(table_id, "active list is out of circle order at " +
                                        name);
    }
    auto it = scans_.find(entry.id);
    if (it == scans_.end()) {
      return AuditFailure(table_id, "active list names unregistered " + name);
    }
    const ScanState& scan = it->second;
    if (scan.desc.table_id != table_id) {
      return AuditFailure(table_id, name + " is on this active list but its "
                                           "descriptor names table " +
                                           std::to_string(scan.desc.table_id));
    }
    if (!on_list.insert(entry.id).second) {
      return AuditFailure(table_id, name + " appears twice on the active list");
    }
    const auto stale = filed_at.find(entry.id);
    const bool moved = stale != filed_at.end();
    const sim::PageId expected = moved ? stale->second : scan.position;
    if (entry.position != expected) {
      return AuditFailure(table_id, "active list files " + name + " at " +
                                        std::to_string(entry.position) +
                                        ", not " + std::to_string(expected));
    }
    if (moved) ++stale_entries;
  }
  if (stale_entries != filed_at.size()) {
    return AuditFailure(table_id,
                        "moved list names scans missing from the active list");
  }

  // Groups exactly partition the active scans, and group_of mirrors the
  // membership lists.
  size_t grouped = 0;
  for (size_t g = 0; g < table.groups.size(); ++g) {
    SCANSHARE_RETURN_IF_ERROR(CheckGroup(table, g, table.groups[g].members));
    grouped += table.groups[g].size();
  }
  if (grouped != table.active.size() ||
      table.group_of.size() != table.active.size()) {
    return AuditFailure(table_id, "groups do not partition the active scans");
  }
  for (const ScanPoint& entry : table.active) {
    if (table.group_of.Find(entry.id) == GroupIndex::kNotFound) {
      return AuditFailure(table_id, "scan " + std::to_string(entry.id) +
                                        " belongs to no group");
    }
  }

  // Right after a regroup the membership order must match the circle:
  // forward distances from the trailer are non-decreasing along the
  // member list and the recorded extent is the trailer→leader distance.
  // (Between regroups positions move, so geometry is only checked when
  // updates_since_regroup == 0.)
  if (table.updates_since_regroup == 0 && table.circle.has_value()) {
    for (const ScanGroup& group : table.groups) {
      const sim::PageId trailer_pos = scans_.at(group.trailer).position;
      uint64_t prev = 0;
      for (ScanId member : group.members) {
        const uint64_t d = table.circle->ForwardDistance(
            trailer_pos, scans_.at(member).position);
        if (d < prev) {
          return AuditFailure(
              table_id, "group members are not in circle order from the "
                        "trailer");
        }
        prev = d;
      }
      if (prev != group.extent_pages) {
        return AuditFailure(table_id,
                            "recorded group extent " +
                                std::to_string(group.extent_pages) +
                                " disagrees with trailer->leader distance " +
                                std::to_string(prev));
      }
    }
  }

  // Fairness: no scan of this table ever accumulates more wait than its
  // budget.
  for (const ScanPoint& entry : table.active) {
    SCANSHARE_RETURN_IF_ERROR(CheckFairness(scans_.at(entry.id)));
  }
  return Status::OK();
}

Status ScanSharingManager::CheckUpdateInvariants(
    const TableState& table, const ScanState& scan) const {
  SCANSHARE_RETURN_IF_ERROR(CheckFairness(scan));
  // Without a regroup the grouping is unchanged, so only what it says
  // about this scan is re-checked: its group holds it, and the group's
  // trailer and leader are scans of this table that map back to it.
  const size_t g = table.group_of.Find(scan.id);
  if (g == GroupIndex::kNotFound ||
      std::find(table.groups[g].members.begin(), table.groups[g].members.end(),
                scan.id) == table.groups[g].members.end()) {
    return AuditFailure(table.id, "no group holds scan " +
                                      std::to_string(scan.id) +
                                      " where group_of points");
  }
  const ScanGroup& group = table.groups[g];
  const ScanId ends[] = {group.trailer, group.leader};
  return CheckGroup(table, g, ends);
}

Status ScanSharingManager::CheckInvariants() const {
  size_t active_total = 0;
  for (const auto& [table_id, table] : tables_) {
    SCANSHARE_RETURN_IF_ERROR(CheckTableInvariants(table));
    active_total += table.active.size();
  }
  if (active_total != scans_.size()) {
    return Status::Internal(
        "audit: " + std::to_string(scans_.size()) + " scans registered but " +
        std::to_string(active_total) + " listed active across tables");
  }
  return Status::OK();
}

Status ScanSharingManager::CheckScanInvariants(ScanId id) const {
  auto it = scans_.find(id);
  if (it == scans_.end()) {
    return Status::NotFound("CheckScanInvariants: unknown scan " +
                            std::to_string(id));
  }
  return CheckUpdateInvariants(tables_.at(it->second.desc.table_id),
                               it->second);
}

StatusOr<buffer::PagePriority> ScanSharingManager::AdvisePriority(ScanId id) const {
  auto it = scans_.find(id);
  if (it == scans_.end()) {
    return Status::NotFound("AdvisePriority: unknown scan " +
                            std::to_string(id));
  }
  const TableState& table = tables_.at(it->second.desc.table_id);
  const ScanGroup* group = FindGroup(table, id);
  if (group == nullptr) return buffer::PagePriority::kNormal;
  return page_policy_->ReleasePriority(MakeReleaseContext(id, table, *group));
}

buffer::ReleaseContext ScanSharingManager::MakeReleaseContext(
    ScanId id, const TableState& table, const ScanGroup& group) const {
  buffer::ReleaseContext ctx;
  ctx.hints_enabled = options_.enable_priority_hints;
  ctx.group_size = group.size();
  ctx.is_leader = group.leader == id;
  ctx.is_trailer = group.trailer == id;
  ctx.successor_gap_pages = SuccessorGap(table, group);
  ctx.extent_pages = options_.EffectiveExtent();
  return ctx;
}

uint64_t ScanSharingManager::SuccessorGap(const TableState& table,
                                          const ScanGroup& group) const {
  if (group.size() < 2 || !table.circle.has_value()) return 0;
  const ScanState& trailer = scans_.at(group.trailer);
  const ScanState& successor = scans_.at(group.members[1]);
  return table.circle->ForwardDistance(trailer.position, successor.position);
}

StatusOr<ScanState> ScanSharingManager::GetScanState(ScanId id) const {
  auto it = scans_.find(id);
  if (it == scans_.end()) {
    return Status::NotFound("GetScanState: unknown scan " + std::to_string(id));
  }
  return it->second;
}

std::vector<ScanGroup> ScanSharingManager::GroupsForTable(uint32_t table_id) const {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) return {};
  return it->second.groups;
}

std::vector<GroupFrontier> ScanSharingManager::GroupFrontiers() const {
  std::vector<GroupFrontier> frontiers;
  // tables_ is an ordered map, so frontiers come out ascending by table id
  // and, within a table, in group order — the deterministic issue order
  // the push pipeline relies on.
  for (const auto& [table_id, table] : tables_) {
    for (const ScanGroup& group : table.groups) {
      if (group.leader == kInvalidScanId) continue;
      auto leader_it = scans_.find(group.leader);
      if (leader_it == scans_.end()) continue;
      const ScanState& leader = leader_it->second;
      frontiers.push_back(GroupFrontier{table_id, leader.desc.table_first,
                                        leader.desc.table_end, group.leader,
                                        leader.position});
    }
  }
  return frontiers;
}

}  // namespace scanshare::ssm
