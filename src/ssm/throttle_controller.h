// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Leader throttling (paper §"scan speed control"): when the distance from a
// group's leader back to its trailer exceeds a threshold (default two
// prefetch extents), the leader is made to wait long enough for the trailer
// to close the excess gap, so the group stays within buffer reach. Waits
// are inserted inside the location-update call — to the scan the call just
// appears slow, which is exactly how the DB2 prototype does it.
//
// Fairness (paper's 80 % rule): once a scan has accumulated waits exceeding
// `fairness_cap` × its estimated total scan time, it is never throttled
// again, so no scan can be delayed indefinitely for the benefit of others.
//
// Both rules are free functions over a linear distance axis, so the two
// managers run one copy of each. GroupThrottlePolicy::Throttle (pages,
// one-extent quantum) and IndexScanSharingManager (blocks, one-block
// quantum) call LeaderWait; both managers charge every decision, whatever
// policy made it, through ChargeFairnessBudget.

#pragma once

#include <cstdint>

#include "ssm/scan_state.h"

namespace scanshare::ssm {

/// Decision produced for one location update.
struct ThrottleDecision {
  sim::Micros wait = 0;        ///< Wait to insert into the calling scan.
  bool capped = false;         ///< True if the fairness cap suppressed a wait.
  /// Observed leader→trailer distance (pages; blocks on the index axis).
  uint64_t gap_pages = 0;
};

/// The leader-wait rule. A leader `gap` units ahead of its trailer waits
/// for the trailer, moving at `trailer_speed` units per second, to close
/// the gap down to `threshold`; the wait is capped at `max_wait`. A gap
/// within one update `quantum` of the threshold waits nothing: positions
/// are reported once per quantum (an extent for table scans, a block for
/// index scans), so the gap of two co-running scans oscillates by up to
/// one quantum. A leader whose fairness budget is `exhausted` gets a
/// `capped` decision instead of a wait.
ThrottleDecision LeaderWait(uint64_t gap, uint64_t threshold, uint64_t quantum,
                            double trailer_speed, bool exhausted,
                            sim::Micros max_wait);

/// A scan's total throttle budget in microseconds: `fairness_cap` × its
/// estimated duration, scaled by its priority-driven throttle `tolerance`
/// (the paper's dynamic-threshold extension).
double FairnessBudget(double fairness_cap, double tolerance,
                      sim::Micros estimated_duration);

/// Charges `decision` against a scan's fairness `budget`, given the
/// `*accumulated_wait` it has already spent, and returns what the cap lets
/// through: the wait clamped to the budget left, which is added to
/// `*accumulated_wait`. The grant that reaches the budget, or any decision
/// once it is gone, sets `*exhausted`, so the scan is never throttled
/// again. The result is `capped` — one cap suppression — iff the cap
/// removed a wanted wait: a capped decision, a used-up budget, or a
/// sub-microsecond residue truncated to a zero grant. A clamped but
/// positive grant is a grant.
ThrottleDecision ChargeFairnessBudget(ThrottleDecision decision, double budget,
                                      sim::Micros* accumulated_wait,
                                      bool* exhausted);

}  // namespace scanshare::ssm
