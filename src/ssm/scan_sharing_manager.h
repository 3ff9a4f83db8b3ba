// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The Scan Sharing Manager (SSM) — the paper's central component. It keeps
// track of ongoing shared scans (location, speed, remaining work), places
// new scans next to ongoing ones, clusters scans into groups (Fig. 14),
// throttles group leaders so groups stay within buffer reach, and advises
// the release priority each scan should attach to processed pages.
//
// The coupling surface is deliberately tiny, mirroring the paper's
// "minimal changes to an existing DBMS" claim: scans call StartScan /
// UpdateLocation / EndScan, and pass the advised priority to the buffer
// pool when releasing pages. The SSM never touches the buffer pool, the
// heap, or the disk.
//
// One manager per run, called from the run's event loop only (the paper's
// one coordinator per buffer pool), so it takes no lock. Its bookkeeping
// (see DESIGN.md §13.4):
//   - each table's grouping (its groups and the group_of reverse index)
//     is updated in place: Regroup assigns the policy's groups and refills
//     group_of in its kept storage; under adaptive_regroup a start appends
//     a singleton group and an end splices the scan out of its group. The
//     group order is the push pipeline's issue order (GroupFrontiers), so
//     an append goes at the end and an erase keeps the rest in order.
//   - each table keeps its active scans in circle order (position, id):
//     StartScan inserts, EndScan erases, UpdateLocation only notes the
//     move in O(1), and Regroup re-sorts just the moved scans before
//     handing the list to SharingPolicy::Group — Fig. 14 then needs no
//     sort of its own. (Re-sorting on every update instead shifts the
//     entries of every scan the update overtakes, which the adaptive
//     regroup-scaling cells cannot afford; see DESIGN.md §13.4.)

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "buffer/page_policy.h"
#include "buffer/replacer.h"
#include "common/audit.h"
#include "common/counters.h"
#include "common/status.h"
#include "obs/trace.h"
#include "ssm/group_builder.h"
#include "ssm/options.h"
#include "ssm/scan_order.h"
#include "ssm/scan_state.h"
#include "ssm/sharing_policy.h"

namespace scanshare::ssm {

/// Returned by StartScan: where to begin and whom the scan joined.
struct StartInfo {
  ScanId id = kInvalidScanId;           ///< Handle for subsequent calls.
  sim::PageId start_page = 0;           ///< Wrap point chosen by the SSM.
  ScanId joined_scan = kInvalidScanId;  ///< Ongoing scan joined, if any.
};

/// Returned by UpdateLocation.
struct UpdateResult {
  sim::Micros wait = 0;  ///< Throttle wait the scan must insert now.
  buffer::PagePriority priority =
      buffer::PagePriority::kNormal;  ///< Release priority until next update.
  bool is_leader = false;             ///< Group role at this update.
  bool is_trailer = false;
  size_t group_size = 1;    ///< Scans in the caller's group.
  uint64_t gap_pages = 0;   ///< Leader→trailer distance (leaders only).
};

/// Aggregate counters for overhead and behaviour reporting.
struct SsmStats {
  uint64_t scans_started = 0;
  uint64_t scans_joined = 0;      ///< Started at another scan's position.
  uint64_t scans_ended = 0;
  uint64_t updates = 0;
  uint64_t regroups = 0;
  uint64_t throttle_events = 0;   ///< Updates that inserted a wait.
  sim::Micros total_wait = 0;     ///< Sum of all inserted waits.
  /// Updates on which the fairness cap suppressed a throttle decision:
  /// the controller wanted the leader to wait but the scan's budget was
  /// already exhausted (or its residue truncated the grant to zero), so no
  /// wait was inserted. Exactly one count per such update — a clamped but
  /// still positive wait is a grant, not a suppression. Invariant:
  /// throttle_events counts updates with result.wait > 0, cap_suppressions
  /// counts leader updates where the cap turned a wanted wait into 0;
  /// the two never count the same update.
  uint64_t cap_suppressions = 0;
};

/// SsmStats' counters in registry order (common/counters.h).
inline constexpr counters::Field<SsmStats> kSsmStatsCounters[] = {
    {"ssm.scans_started", &SsmStats::scans_started},
    {"ssm.scans_joined", &SsmStats::scans_joined},
    {"ssm.scans_ended", &SsmStats::scans_ended},
    {"ssm.updates", &SsmStats::updates},
    {"ssm.regroups", &SsmStats::regroups},
    {"ssm.throttle_events", &SsmStats::throttle_events},
    {"ssm.total_wait_us", &SsmStats::total_wait},
    {"ssm.cap_suppressions", &SsmStats::cap_suppressions},
};
static_assert(counters::Covers(kSsmStatsCounters, sizeof(SsmStats)));

/// One group's read frontier as the push I/O pipeline consumes it
/// (io::Prefetcher::Pump): enough to aim a window of extent reads ahead of
/// the group's leader. Stale once a scan moves; the pipeline tolerates
/// staleness (a wasted read at worst, never a wrong install).
struct GroupFrontier {
  uint32_t table_id = 0;
  sim::PageId table_first = 0;     ///< Table span (clip bounds for reads).
  sim::PageId table_end = 0;
  ScanId leader = kInvalidScanId;  ///< Front-most scan of the group.
  sim::PageId leader_position = 0; ///< Leader's next page to process.
};

/// Central registry + policies. One instance per buffer pool (paper: "there
/// is one manager per bufferpool"). Not thread-safe (see the file comment).
class ScanSharingManager {
 public:
  /// Default policy pair: the paper's grouping + throttling
  /// (GroupThrottlePolicy) with priority-LRU release hints
  /// (DefaultPagePolicy) — bit-identical to the pre-seam manager.
  explicit ScanSharingManager(SsmOptions options);

  /// Policy-seam constructor (DESIGN.md §13): every placement / grouping /
  /// throttle decision routes through `sharing`, every release-priority
  /// decision through `page`. Null pointers fall back to the defaults
  /// above. The manager keeps all bookkeeping — registries, stats,
  /// fairness-cap budgets, tracing, audits — so policies compete on
  /// decisions alone.
  ScanSharingManager(SsmOptions options, std::shared_ptr<SharingPolicy> sharing,
                     std::shared_ptr<const buffer::PagePolicy> page);

  /// Registers a scan and decides where it starts. Validates the
  /// descriptor (ranges, estimates); returns InvalidArgument on misuse.
  [[nodiscard]] StatusOr<StartInfo> StartScan(const ScanDescriptor& desc,
                                               sim::Micros now);

  /// Reports that the scan is now at `position` having processed
  /// `pages_processed` pages in total. Returns the throttle wait to insert
  /// and the release priority to use until the next update. NotFound for
  /// unknown ids; InvalidArgument if `position` is outside the scan's
  /// table.
  [[nodiscard]] StatusOr<UpdateResult> UpdateLocation(ScanId id,
                                                      sim::PageId position,
                                                      uint64_t pages_processed,
                                                      sim::Micros now);

  /// Deregisters the scan, remembering its final position for the
  /// "no ongoing scans" placement case.
  [[nodiscard]] Status EndScan(ScanId id, sim::Micros now);

  /// Release priority for `id` based on its current group role, without
  /// the cost of a full location update.
  [[nodiscard]] StatusOr<buffer::PagePriority> AdvisePriority(ScanId id) const;

  /// Full cross-structure consistency audit. Verifies, in O(scans +
  /// groups):
  ///   - every registered scan sits on exactly one table's active list and
  ///     that table matches its descriptor; no duplicates;
  ///   - each active list is strictly sorted by (position, id), and every
  ///     entry carries its scan's position — or, for a scan moved since
  ///     the last regroup, the position its pending re-sort removes;
  ///   - each table's grouping exactly partitions its active scans,
  ///     group_of agrees with group membership, and every group's
  ///     trailer/leader are its first/last member;
  ///   - immediately after a regroup (updates_since_regroup == 0) members
  ///     are ordered along the circle from the trailer and the recorded
  ///     group extent equals the trailer->leader forward distance;
  ///   - no scan's accumulated throttle wait exceeds its fairness budget
  ///     (fairness_cap x tolerance x estimated duration).
  /// Returns Internal describing the first violation. Always compiled in;
  /// additionally invoked after every mutation in SCANSHARE_AUDIT builds:
  /// in full after StartScan and EndScan, table-scoped after an
  /// UpdateLocation that regrouped, and scoped to what one update can
  /// change otherwise (the moved scan's fairness budget, its group's
  /// membership and roles).
  [[nodiscard]] Status CheckInvariants() const;

  /// The scoped audit an UpdateLocation that did not regroup runs in
  /// SCANSHARE_AUDIT builds, for scan `id`: its fairness budget and its
  /// group's membership and roles. NotFound for unknown ids, Internal on a
  /// violation. Always compiled in, like CheckInvariants.
  [[nodiscard]] Status CheckScanInvariants(ScanId id) const;

  /// Introspection (tests, reports).
  [[nodiscard]] StatusOr<ScanState> GetScanState(ScanId id) const;
  std::vector<ScanGroup> GroupsForTable(uint32_t table_id) const;
  /// Read frontiers of every group on every table, in deterministic order
  /// (tables ascending by id, groups in the table's group order; singletons
  /// included). The push I/O pipeline polls this to aim prefetch windows.
  std::vector<GroupFrontier> GroupFrontiers() const;
  size_t ActiveScanCount() const { return scans_.size(); }
  /// Counters over every table.
  SsmStats stats() const { return stats_; }
  const SsmOptions& options() const { return options_; }
  /// The policies in force (for reports and the parity tests).
  const SharingPolicy& sharing_policy() const { return *sharing_policy_; }
  const buffer::PagePolicy& page_policy() const { return *page_policy_; }

  /// Attaches a borrowed event tracer (or detaches with nullptr). The SSM
  /// emits the scan-lifecycle events: admit/join, leader/trailer
  /// transitions, throttle insertions, fairness-cap suppressions, regroup
  /// decisions, and scan end.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// One table's scans and grouping.
  struct TableState {
    uint32_t id = 0;  ///< Table id (trace actor).
    std::optional<ScanCircle> circle;
    /// The table's active scans, strictly sorted by CircleOrderLess. A
    /// scan moved since the last regroup keeps its old entry here until
    /// Regroup re-sorts it.
    std::vector<ScanPoint> active;
    /// One note per location update that moved a scan since the last
    /// regroup: the scan and the position it moved from. A scan's first
    /// note is its entry in `active`.
    std::vector<ScanPoint> moved;
    /// Merge buffer for the re-sort, kept so a regroup allocates nothing
    /// for it: per-regroup temporary buffers raised the push_io
    /// benchmark's peak RSS by 4-10 MiB.
    std::vector<ScanPoint> scratch;
    std::optional<sim::PageId> last_finished_pos;
    /// The grouping, updated in place, and its reverse index.
    std::vector<ScanGroup> groups;
    GroupIndex group_of;
    uint32_t updates_since_regroup = 0;
  };

  /// Recomputes groups for one table from current scan positions. `now`
  /// only stamps the trace event.
  void Regroup(TableState* table, sim::Micros now);

  /// Brings the table's active list up to date: drops the moved scans'
  /// stale entries and merges them back at their current positions, in
  /// O(active + k log active) for k move notes.
  void ResortMoved(TableState* table);

  /// Incremental grouping maintenance (SsmOptions::adaptive_regroup):
  /// appends the new scan as a singleton group in amortized O(1), or
  /// splices the ended scan out of its group in O(group), plus one
  /// re-index of the later groups' members when its group vanishes.
  /// Neither counts as a regroup (no kRegroup event, no stats bump,
  /// updates_since_regroup untouched) — they keep the partition invariant
  /// exact while the *quality* of grouping waits for the next full
  /// rebuild. RemoveScanIncremental must run before the scan leaves
  /// scans_ (it reads surviving members' positions).
  void InsertScanIncremental(TableState* table, ScanId id);
  void RemoveScanIncremental(TableState* table, ScanId id);

  /// Group containing `id` in the table's grouping, or nullptr.
  static const ScanGroup* FindGroup(const TableState& table, ScanId id);

  /// Forward distance from the group's trailer to the member right ahead
  /// of it (0 for singletons) — input to the release-priority decision.
  uint64_t SuccessorGap(const TableState& table, const ScanGroup& group) const;

  /// Condenses `id`'s role in `group` into the policy-neutral context the
  /// page policy advises on.
  buffer::ReleaseContext MakeReleaseContext(ScanId id, const TableState& table,
                                            const ScanGroup& group) const;

  /// CheckInvariants for one table.
  [[nodiscard]] Status CheckTableInvariants(const TableState& table) const;
  /// The part of the table audit one location update of `scan` can
  /// invalidate when it does not regroup: the scan's fairness budget, and
  /// its group's membership and roles (trailer and leader). O(group) id
  /// comparisons and a constant number of lookups; the moved list is
  /// audited in full at the next regroup, which consumes it.
  [[nodiscard]] Status CheckUpdateInvariants(const TableState& table,
                                             const ScanState& scan) const;
  /// Group `g` of the table's grouping is non-empty, its trailer/leader
  /// are its first/last member, and each of `members` is a registered scan
  /// of this table that the reverse index maps back to `g`.
  [[nodiscard]] Status CheckGroup(const TableState& table, size_t g,
                                  std::span<const ScanId> members) const;
  /// `scan`'s accumulated throttle wait is within its fairness budget.
  [[nodiscard]] Status CheckFairness(const ScanState& scan) const;

  SsmOptions options_;
  /// The two sides of the policy seam; never null after construction.
  /// shared_ptr because one policy instance may serve several managers in
  /// a run (and PBM's page policy is shared with the pool construction).
  std::shared_ptr<SharingPolicy> sharing_policy_;
  std::shared_ptr<const buffer::PagePolicy> page_policy_;

  ScanId next_id_ = 1;
  std::unordered_map<ScanId, ScanState> scans_;
  std::map<uint32_t, TableState> tables_;
  SsmStats stats_;
  /// Borrowed; wired per run by the engine.
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace scanshare::ssm
