// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Configuration for the Scan Sharing Manager. Defaults reproduce the
// paper's prototype settings (32 KiB pages, 16-page extents, throttle
// threshold of two prefetch extents, 80 % fairness cap).

#pragma once

#include <cstdint>

#include "sim/virtual_clock.h"

namespace scanshare::ssm {

/// Tuning knobs for the Scan Sharing Manager.
struct SsmOptions {
  /// Enables leader throttling (paper §"speed control"). Ablation A1.
  bool enable_throttling = true;

  /// Enables leader/trailer release-priority hints (paper §"adaptive
  /// bufferpool page prioritization"). Ablation A2.
  bool enable_priority_hints = true;

  /// Enables placement of new scans at ongoing scans' positions. When
  /// false, scans always start at their range begin (they may still drift
  /// into sharing by chance, the paper's baseline observation).
  bool enable_smart_placement = true;

  /// Buffer-pool size in pages: the budget for group formation (the Fig.-14
  /// algorithm stops merging when the summed group extents reach this).
  uint64_t bufferpool_pages = 1024;

  /// Sequential prefetch unit in pages; the throttle distance threshold
  /// defaults to two of these (paper: "typically less than two prefetch
  /// extents").
  uint64_t prefetch_extent_pages = 16;

  /// Leader→trailer distance (pages) above which the leader is throttled.
  /// 0 means "use 2 * prefetch_extent_pages".
  uint64_t distance_threshold_pages = 0;

  /// Fraction of a scan's estimated total time it may spend throttled
  /// before throttling is permanently disabled for it (paper: 80 %).
  double fairness_cap = 0.8;

  /// Upper bound on a single inserted wait, keeping the controller
  /// responsive to speed changes between location updates.
  sim::Micros max_wait_per_update = 250'000;

  /// Rebuild scan groups every this many location updates (1 = always).
  uint32_t regroup_interval_updates = 1;

  /// Service-scale regroup amortization. A Fig.-14 rebuild re-sorts the k
  /// scans that moved since the previous one and walks all n active scans
  /// once: O(n + k log n) per call. At the default interval of 1 every
  /// location update pays it (k = 1), so total regroup work grows as
  /// O(n^2) with the scan count — fine at the paper's 5 streams, heavy at
  /// a service's thousands. When set:
  ///   - StartScan/EndScan maintain the grouping in place instead of
  ///     rebuilding it: a start appends a singleton group in amortized
  ///     O(1), an end splices its scan out in O(n);
  ///   - UpdateLocation stretches the effective regroup interval to
  ///     max(regroup_interval_updates, active_scans / 8), amortizing the
  ///     rebuild (k <= active/8) to O(log n) per update.
  /// Grouping quality between full rebuilds degrades gracefully (a new
  /// scan runs as a singleton for at most active/8 updates before the
  /// next rebuild can merge it). Off by default: the legacy schedule is
  /// bit-identical to the paper prototype and the trace goldens pin it.
  bool adaptive_regroup = false;

  /// Location updates between full group rebuilds for a table currently
  /// holding `active_scans` scans (>= 1; see adaptive_regroup).
  uint32_t EffectiveRegroupInterval(size_t active_scans) const {
    if (!adaptive_regroup) return regroup_interval_updates;
    const auto amortized = static_cast<uint32_t>(active_scans / 8);
    return amortized > regroup_interval_updates ? amortized
                                                : regroup_interval_updates;
  }

  /// Effective prefetch extent (>= 1): the position-report/alignment
  /// quantum every distance rule is stated in. prefetch_extent_pages == 0
  /// ("no prefetch") must behave as a one-page quantum EVERYWHERE — the
  /// single clamp lives here so no policy reads the raw field and
  /// disagrees with another about what a zero extent means.
  uint64_t EffectiveExtent() const {
    return prefetch_extent_pages > 0 ? prefetch_extent_pages : 1;
  }

  /// Effective throttle threshold in pages. An explicit setting is used
  /// verbatim; the default is two prefetch extents (the paper's rule),
  /// clamped to half the buffer-pool budget so that on small pools the
  /// throttle still fires before the grouping budget splits the group.
  /// (At the paper's scale — pool of thousands of pages — the clamp never
  /// binds.)
  uint64_t EffectiveDistanceThreshold() const {
    if (distance_threshold_pages != 0) return distance_threshold_pages;
    const uint64_t two_extents = 2 * EffectiveExtent();
    const uint64_t half_pool = bufferpool_pages / 2;
    const uint64_t clamped = two_extents < half_pool ? two_extents : half_pool;
    return clamped > 0 ? clamped : 1;
  }
};

}  // namespace scanshare::ssm
