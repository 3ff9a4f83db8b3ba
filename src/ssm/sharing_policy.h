// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// SSM side of the policy seam (DESIGN.md §13). A SharingPolicy makes every
// scan-coordination decision of the ScanSharingManager: where an admitted
// scan starts (Place), how active scans cluster into leader/trailer groups
// (Group — the ordering decision: a group's member order IS the scan order
// the throttle and release hints act on), and whether a leader must wait
// (Throttle). The manager keeps everything
// else: registries, locking, stats, fairness-cap accounting, tracing and
// audits — so rival policies compete on decisions alone, under identical
// bookkeeping.
//
// Decision methods are const and must be pure functions of their inputs
// (no clocks, no RNG — enforced by the scanshare-policy lint rule over
// src/ssm/policies/). Policies that need cross-call state (PBM's scan
// trajectories) keep it behind the OnScan*/OnLocationUpdate observation
// hooks, which the manager invokes on the run's event loop: no two hook
// calls ever overlap, and the state a hook shares with the buffer pool
// (PBM's ScanPositionBoard, which the PBM replacer reads) needs no lock.

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/policy_kind.h"
#include "ssm/group_builder.h"
#include "ssm/options.h"
#include "ssm/placement_policy.h"
#include "ssm/scan_order.h"
#include "ssm/scan_state.h"
#include "ssm/throttle_controller.h"

namespace scanshare::buffer {
class ScanPositionBoard;
}  // namespace scanshare::buffer

namespace scanshare::ssm {

/// Scan admission/placement/ordering/throttle policy. One instance serves
/// one ScanSharingManager; see the file comment for the lock contract.
class SharingPolicy {
 public:
  virtual ~SharingPolicy() = default;

  /// Stable policy name for reports.
  virtual const char* name() const = 0;

  /// Start location for a new scan whose initial speed estimate is
  /// `est_speed_pps`. `active` holds the ongoing scans of its table,
  /// `total_active_scans` counts every scan sharing the buffer pool, and
  /// `last_finished_pos` is where the table's most recent scan ended.
  virtual Placement Place(const ScanDescriptor& desc, double est_speed_pps,
                          const std::vector<const ScanState*>& active,
                          size_t total_active_scans,
                          std::optional<sim::PageId> last_finished_pos,
                          const ScanCircle& circle) const = 0;

  /// Clusters one table's active scans into ordered groups. The manager
  /// passes `points` sorted by CircleOrderLess (its maintained order). The
  /// result must satisfy the manager's grouping audit: groups partition
  /// `points`, members are listed trailer -> leader in circle order, and
  /// extent_pages is the trailer->leader forward distance.
  virtual std::vector<ScanGroup> Group(const std::vector<ScanPoint>& points,
                                       const ScanCircle& circle) const = 0;

  /// Wait decision for `scan` (which just reported its location) given its
  /// group and the group trailer. The manager applies the fairness cap to
  /// whatever wait this returns — policies never track budgets.
  virtual ThrottleDecision Throttle(const ScanState& scan,
                                    const ScanGroup& group,
                                    const ScanState& trailer,
                                    const ScanCircle& circle) const = 0;

  /// Observation hooks (default no-op); see the lock contract above.
  virtual void OnScanStarted(const ScanState& scan) { (void)scan; }
  virtual void OnLocationUpdate(const ScanState& scan) { (void)scan; }
  virtual void OnScanEnded(ScanId id, sim::PageId final_pos) {
    (void)id;
    (void)final_pos;
  }
};

/// Builds the sharing policy for `kind` under `options`. `board` is where
/// the PBM policy publishes scan trajectories (must be the board the PBM
/// page policy reads); ignored (may be null) for the other kinds.
std::shared_ptr<SharingPolicy> MakeSharingPolicy(
    PolicyKind kind, const SsmOptions& options,
    std::shared_ptr<buffer::ScanPositionBoard> board);

}  // namespace scanshare::ssm
