// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The paper's mechanism as a SharingPolicy: placement at ongoing scans
// (the SharingScore / InScanRange / AlignStart rules of placement_policy.h),
// Fig.-14 grouping (BuildScanGroups), leader throttling (the LeaderWait
// rule of throttle_controller.h). This is the DEFAULT policy — a manager built with
// it decides bit-identically to the pre-seam ScanSharingManager (pinned by
// policy_parity_test and the trace goldens), so every existing experiment
// is unchanged.

#pragma once

#include "ssm/sharing_policy.h"

namespace scanshare::ssm {

/// Grouping + throttling (paper default). Stateless beyond its options;
/// one instance serves every table of a run.
class GroupThrottlePolicy final : public SharingPolicy {
 public:
  explicit GroupThrottlePolicy(const SsmOptions& options) : options_(options) {}

  const char* name() const override {
    return PolicyKindName(PolicyKind::kGroupThrottle);
  }

  /// Joins the ongoing scan in range with the best SharingScore (ties go
  /// to the smaller id), at its start page if it is young enough that its
  /// pages plausibly still sit in the pool, else at its position. With no
  /// candidate, reuses the last finished scan's final position if in
  /// range; otherwise starts at the range begin. `total_active_scans`
  /// counts every scan sharing the pool, across tables: it scales the
  /// pool-churn estimate of the young-candidate refinement.
  Placement Place(const ScanDescriptor& desc, double est_speed_pps,
                  const std::vector<const ScanState*>& active,
                  size_t total_active_scans,
                  std::optional<sim::PageId> last_finished_pos,
                  const ScanCircle& circle) const override;

  std::vector<ScanGroup> Group(const std::vector<ScanPoint>& points,
                               const ScanCircle& circle) const override;

  /// Only a group's leader waits: LeaderWait over its forward distance to
  /// the trailer, with a one-extent update quantum.
  ThrottleDecision Throttle(const ScanState& scan, const ScanGroup& group,
                            const ScanState& trailer,
                            const ScanCircle& circle) const override;

 private:
  SsmOptions options_;
};

}  // namespace scanshare::ssm
