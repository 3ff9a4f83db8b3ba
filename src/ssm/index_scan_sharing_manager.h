// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Index Scan Sharing Manager (ISM) — the extension layer after the
// authors' VLDB 2007 follow-up ("Increasing Buffer-Locality for Multiple
// Index Based Scans through Intelligent Placement and Index Scan Speed
// Control"). Block-index scans traverse (key, block) locations whose block
// ids are NOT monotonic in disk position, so unlike table scans there is
// no global position order to measure distances on. The follow-up's
// solution, implemented here:
//
//  * every SISCAN carries an *anchor* (a fixed index location) and an
//    *anchor offset* (blocks advanced since the anchor);
//  * scans placed at another scan's location inherit its anchor, so their
//    relative distance is simply the offset difference;
//  * scans whose location reaches another scan's anchor merge into that
//    anchor group (paper §7.1), extending the partial order;
//  * grouping / leader-trailer classification / throttling / release
//    priorities then call the table-scan rules themselves on the linear
//    offset axis (paper §7.2: "we can reuse all of the grouping,
//    leader/trailer classification, throttling and page prioritization
//    algorithms"): placement scores candidates with SharingScore and
//    InScanRange (placement_policy.h), grouping is MergeAdjacentScans
//    over the anchor axes (group_builder.h), a leader waits by LeaderWait
//    with a one-block update quantum and pays through ChargeFairnessBudget
//    (throttle_controller.h), and release priorities come from
//    buffer::DefaultPagePolicy with a one-block extent.
//
// The index structure itself stays a black box: the ISM sees opaque
// (key, position-within-key) locations and block counts only.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "buffer/replacer.h"
#include "common/counters.h"
#include "common/status.h"
#include "sim/virtual_clock.h"
#include "ssm/group_builder.h"
#include "ssm/scan_state.h"

namespace scanshare::ssm {

/// A location in index-scan order: the key being processed and the ordinal
/// of the current block within that key's block list (paper §3.2: "key and
/// RID/BID"). Opaque to the ISM except for equality.
struct IndexScanLocation {
  int64_t key = 0;
  uint32_t pos_in_key = 0;

  bool operator==(const IndexScanLocation& other) const {
    return key == other.key && pos_in_key == other.pos_in_key;
  }
};

/// What a SISCAN declares at registration (paper §4: scan range plus the
/// speed and amount estimates supplied by the costing component).
struct IndexScanDescriptor {
  uint32_t index_id = 0;       ///< One id per (table, index).
  int64_t start_key = 0;       ///< First key of the range (inclusive).
  int64_t end_key = 0;         ///< Last key of the range (inclusive).
  uint64_t estimated_blocks = 0;   ///< Scan-amount estimate.
  sim::Micros estimated_duration = 1;  ///< Scan-time estimate.
  double throttle_tolerance = 1.0;     ///< Priority extension (see SSM).
};

/// Live ISM state of one SISCAN.
struct IndexScanState {
  ScanId id = kInvalidScanId;
  IndexScanDescriptor desc;
  IndexScanLocation location;      ///< Most recently reported location.
  uint64_t blocks_processed = 0;
  double speed_bps = 1.0;          ///< Blocks per second (windowed).
  uint64_t anchor = 0;             ///< Anchor group id.
  uint64_t anchor_offset = 0;      ///< Blocks advanced since the anchor.
  sim::Micros started_at = 0;
  sim::Micros last_update_at = 0;
  uint64_t blocks_at_last_update = 0;
  sim::Micros accumulated_wait = 0;
  bool throttling_exhausted = false;

  /// Blocks the scan still expects to read.
  uint64_t remaining_blocks() const {
    return blocks_processed >= desc.estimated_blocks
               ? 0
               : desc.estimated_blocks - blocks_processed;
  }
};

/// ISM policy knobs (block-granular analogues of SsmOptions).
struct IsmOptions {
  bool enable_throttling = true;
  bool enable_priority_hints = true;
  bool enable_smart_placement = true;
  /// Grouping budget in blocks (buffer pool pages / block pages).
  /// 0 = let Database::Run derive it from the buffer geometry; direct ISM
  /// users should set it explicitly.
  uint64_t bufferpool_blocks = 0;
  /// Leader→trailer distance (blocks) above which leaders wait. The
  /// paper's two-prefetch-extent rule with block == prefetch unit.
  uint64_t distance_threshold_blocks = 2;
  double fairness_cap = 0.8;
  sim::Micros max_wait_per_update = 250'000;

  /// Threshold clamped so it can fire before the grouping budget splits
  /// the group (cf. SsmOptions::EffectiveDistanceThreshold).
  uint64_t EffectiveThresholdBlocks() const {
    const uint64_t half_pool = bufferpool_blocks / 2;
    const uint64_t clamped =
        distance_threshold_blocks < half_pool ? distance_threshold_blocks
                                              : half_pool;
    return clamped > 0 ? clamped : 1;
  }
};

/// Returned by StartIndexScan.
struct IndexStartInfo {
  ScanId id = kInvalidScanId;
  /// True if the scan starts at `start_location` (another scan's position
  /// or a harvested last-finished position); false = start at range begin.
  bool placed = false;
  IndexScanLocation start_location;
  ScanId joined_scan = kInvalidScanId;
};

/// Returned by UpdateIndexScan.
struct IndexUpdateResult {
  sim::Micros wait = 0;
  buffer::PagePriority priority = buffer::PagePriority::kNormal;
  bool is_leader = false;
  bool is_trailer = false;
  size_t group_size = 1;
  uint64_t gap_blocks = 0;
  bool anchor_merged = false;  ///< This update merged two anchor groups.
};

/// ISM counters.
struct IsmStats {
  uint64_t scans_started = 0;
  uint64_t scans_joined = 0;
  uint64_t scans_ended = 0;
  uint64_t updates = 0;
  uint64_t throttle_events = 0;
  sim::Micros total_wait = 0;
  uint64_t anchor_merges = 0;
  uint64_t cap_suppressions = 0;
};

/// IsmStats' counters in registry order (common/counters.h).
inline constexpr counters::Field<IsmStats> kIsmStatsCounters[] = {
    {"ism.scans_started", &IsmStats::scans_started},
    {"ism.scans_joined", &IsmStats::scans_joined},
    {"ism.scans_ended", &IsmStats::scans_ended},
    {"ism.updates", &IsmStats::updates},
    {"ism.throttle_events", &IsmStats::throttle_events},
    {"ism.total_wait_us", &IsmStats::total_wait},
    {"ism.anchor_merges", &IsmStats::anchor_merges},
    {"ism.cap_suppressions", &IsmStats::cap_suppressions},
};
static_assert(counters::Covers(kIsmStatsCounters, sizeof(IsmStats)));

/// Central registry + policies for shared block-index scans.
class IndexScanSharingManager {
 public:
  explicit IndexScanSharingManager(IsmOptions options);

  /// Registers a SISCAN and decides where it starts (paper Fig. 13).
  [[nodiscard]] StatusOr<IndexStartInfo> StartIndexScan(const IndexScanDescriptor& desc,
                                          sim::Micros now);

  /// Reports progress: the scan is at `location` having processed
  /// `blocks_processed` blocks in total. Returns the wait to insert and
  /// the release priority to use (paper Fig. 3 lines 5-6).
  [[nodiscard]] StatusOr<IndexUpdateResult> UpdateIndexScan(ScanId id,
                                              IndexScanLocation location,
                                              uint64_t blocks_processed,
                                              sim::Micros now);

  /// Deregisters the scan; its final location is remembered for the
  /// "start at the most recently finished scan" special case (paper §6.3).
  [[nodiscard]] Status EndIndexScan(ScanId id, sim::Micros now);

  /// Introspection.
  [[nodiscard]] StatusOr<IndexScanState> GetScanState(ScanId id) const;
  std::vector<ScanGroup> GroupsForIndex(uint32_t index_id) const;
  size_t ActiveScanCount() const;
  const IsmStats& stats() const { return stats_; }
  const IsmOptions& options() const { return options_; }

 private:
  struct AnchorInfo {
    IndexScanLocation location;  ///< The fixed location the offsets count from.
    uint32_t index_id = 0;
  };
  struct IndexState {
    std::vector<ScanId> active;
    std::optional<IndexScanLocation> last_finished;
    std::vector<ScanGroup> groups;  ///< Across all anchor groups.
    GroupIndex group_of;
  };

  void Regroup(uint32_t index_id);
  const ScanGroup* FindGroup(const IndexState& index, ScanId id) const;
  /// Blocks `ahead` is past `behind` on their shared anchor axis (0 if
  /// it is not ahead).
  uint64_t OffsetGap(ScanId behind, ScanId ahead) const;

  IsmOptions options_;
  ScanId next_id_ = 1;
  uint64_t next_anchor_ = 1;
  std::unordered_map<ScanId, IndexScanState> scans_;
  std::unordered_map<uint64_t, AnchorInfo> anchors_;
  std::map<uint32_t, IndexState> indexes_;
  IsmStats stats_;
};

}  // namespace scanshare::ssm
