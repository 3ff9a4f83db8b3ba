#include "ssm/placement_policy.h"

#include <gtest/gtest.h>

#include "ssm/policies/group_throttle_policy.h"

namespace scanshare::ssm {
namespace {

SsmOptions DefaultOptions() {
  SsmOptions o;
  o.prefetch_extent_pages = 16;
  return o;
}

ScanDescriptor FullTableDesc(sim::PageId first = 0, sim::PageId end = 1024) {
  ScanDescriptor d;
  d.table_id = 1;
  d.table_first = first;
  d.table_end = end;
  d.range_first = first;
  d.range_end = end;
  d.estimated_pages = end - first;
  d.estimated_duration = sim::Seconds(10);
  return d;
}

ScanState ActiveScan(ScanId id, sim::PageId pos, double pps,
                     uint64_t remaining) {
  ScanState s;
  s.id = id;
  s.position = pos;
  s.speed_pps = pps;
  s.desc = FullTableDesc();
  // A mature scan: its covered region no longer fits the pool, so the
  // "young candidate" refinement does not fire and placement targets the
  // candidate's current position. Young-candidate behaviour is tested
  // separately below.
  s.start_page = 0;
  s.pages_processed = 4096;
  s.desc.estimated_pages = 4096 + remaining;  // remaining_pages() == remaining.
  return s;
}

TEST(PlacementPolicyTest, NoScansNoHistoryStartsAtRangeBegin) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  auto placement = p.Place(FullTableDesc(), 100.0, {}, 0, std::nullopt, c);
  EXPECT_EQ(placement.start_page, 0u);
  EXPECT_EQ(placement.joined_scan, kInvalidScanId);
}

TEST(PlacementPolicyTest, JoinsOnlyOngoingScan) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  ScanState a = ActiveScan(7, 512, 100.0, 512);
  auto placement = p.Place(FullTableDesc(), 100.0, {&a}, 1, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, 7u);
  EXPECT_EQ(placement.start_page, 512u);  // Already extent-aligned.
}

TEST(PlacementPolicyTest, StartPageAlignedDownToExtent) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  ScanState a = ActiveScan(7, 519, 100.0, 500);
  auto placement = p.Place(FullTableDesc(), 100.0, {&a}, 1, std::nullopt, c);
  EXPECT_EQ(placement.start_page, 512u);  // 519 aligned down to 16-grid.
}

TEST(PlacementPolicyTest, ZeroExtentAlignsToSinglePages) {
  // prefetch_extent_pages == 0 must mean a one-page alignment quantum
  // (EffectiveExtent), not a division by zero or a surprise grid.
  SsmOptions o = DefaultOptions();
  o.prefetch_extent_pages = 0;
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  ScanState a = ActiveScan(7, 519, 100.0, 500);
  auto placement = p.Place(FullTableDesc(), 100.0, {&a}, 1, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, 7u);
  EXPECT_EQ(placement.start_page, 519u);  // Exact position: one-page grid.
}

TEST(PlacementPolicyTest, PrefersSpeedMatchedScan) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  // Both have plenty of range left; the speed-matched one wins (the
  // paper's Figure-7 "scan C beats scan A" case).
  ScanState fast = ActiveScan(1, 256, 500.0, 700);
  ScanState matched = ActiveScan(2, 512, 100.0, 450);
  auto placement =
      p.Place(FullTableDesc(), 100.0, {&fast, &matched}, 2, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, 2u);
}

TEST(PlacementPolicyTest, PrefersScanWithMoreRemainingRange) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  // Same speeds; the one about to finish shares almost nothing (the
  // paper's Figure-7 "scan B has little remaining overlap" case).
  ScanState nearly_done = ActiveScan(1, 1000, 100.0, 16);
  ScanState fresh = ActiveScan(2, 128, 100.0, 900);
  auto placement =
      p.Place(FullTableDesc(), 100.0, {&nearly_done, &fresh}, 2, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, 2u);
}

TEST(PlacementPolicyTest, IgnoresScansOutsideNewRange) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  ScanDescriptor d = FullTableDesc();
  d.range_first = 512;  // New scan only covers the second half.
  d.range_end = 1024;
  d.estimated_pages = 512;
  ScanState outside = ActiveScan(1, 100, 100.0, 900);
  auto placement = p.Place(d, 100.0, {&outside}, 1, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, kInvalidScanId);
  EXPECT_EQ(placement.start_page, 512u);
}

TEST(PlacementPolicyTest, UsesLastFinishedPositionWhenIdle) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  auto placement = p.Place(FullTableDesc(), 100.0, {}, 0, sim::PageId{768}, c);
  EXPECT_EQ(placement.start_page, 768u);
  EXPECT_EQ(placement.joined_scan, kInvalidScanId);
}

TEST(PlacementPolicyTest, LastFinishedOutsideRangeIgnored) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  ScanDescriptor d = FullTableDesc();
  d.range_first = 0;
  d.range_end = 512;
  d.estimated_pages = 512;
  auto placement = p.Place(d, 100.0, {}, 0, sim::PageId{768}, c);
  EXPECT_EQ(placement.start_page, 0u);
}

TEST(PlacementPolicyTest, SmartPlacementDisabled) {
  SsmOptions o = DefaultOptions();
  o.enable_smart_placement = false;
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  ScanState a = ActiveScan(7, 512, 100.0, 512);
  auto placement = p.Place(FullTableDesc(), 100.0, {&a}, 1, sim::PageId{256}, c);
  EXPECT_EQ(placement.start_page, 0u);
  EXPECT_EQ(placement.joined_scan, kInvalidScanId);
}

TEST(PlacementPolicyTest, SharingScoreMonotonicInRemaining) {
  const uint64_t threshold = DefaultOptions().EffectiveDistanceThreshold();
  EXPECT_LT(SharingScore(100.0, 50, 100.0, 1024, threshold),
            SharingScore(100.0, 800, 100.0, 1024, threshold));
}

TEST(PlacementPolicyTest, SharingScoreFavoursCloserSpeeds) {
  const uint64_t threshold = DefaultOptions().EffectiveDistanceThreshold();
  // Candidate has huge remaining work: drift horizon dominates the score.
  EXPECT_GT(SharingScore(100.0, 100000, 110.0, 1 << 20, threshold),
            SharingScore(100.0, 100000, 400.0, 1 << 20, threshold));
}

TEST(PlacementPolicyTest, SharingScoreIsSharedTimeTimesSlowerSpeed) {
  // Drift horizon 32 / |100 - 80| = 1.6 s beats the candidate's 1000 / 100
  // = 10 s and the new scan's 1000 / 80 = 12.5 s; the pair shares for
  // 1.6 s at the slower 80 units/s.
  EXPECT_DOUBLE_EQ(SharingScore(100.0, 1000, 80.0, 1000, 32), 128.0);
  // Equal speeds never drift apart: the shorter remaining work bounds it.
  EXPECT_DOUBLE_EQ(SharingScore(50.0, 200, 50.0, 1000, 32), 200.0);
}

TEST(PlacementPolicyTest, YoungCandidateJoinedAtItsStart) {
  SsmOptions o = DefaultOptions();
  o.bufferpool_pages = 256;
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  ScanState young = ActiveScan(7, 192, 100.0, 800);
  young.start_page = 64;
  young.pages_processed = 128;  // 128 * 1 <= 256: everything resident.
  auto placement = p.Place(FullTableDesc(), 100.0, {&young}, 1, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, 7u);
  // Placed at the candidate's start: the catch-up rides buffered pages
  // and the wrap tail shrinks by the candidate's progress.
  EXPECT_EQ(placement.start_page, 64u);
}

TEST(PlacementPolicyTest, YoungRefinementScalesWithActiveScanCount) {
  SsmOptions o = DefaultOptions();
  o.bufferpool_pages = 256;
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  // Same candidate progress, but three active scans churn the pool three
  // times as fast: 128 * 3 > 256, so the refinement must not fire.
  ScanState cand = ActiveScan(1, 192, 100.0, 800);
  cand.start_page = 64;
  cand.pages_processed = 128;
  ScanState other1 = ActiveScan(2, 700, 100.0, 300);
  ScanState other2 = ActiveScan(3, 900, 100.0, 100);
  auto placement =
      p.Place(FullTableDesc(), 100.0, {&cand, &other1, &other2}, 3, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, 1u);
  EXPECT_EQ(placement.start_page, 192u);  // Current position, not start.
}

TEST(PlacementPolicyTest, EqualScoresBreakTiesByScanId) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1024);
  ScanState a = ActiveScan(3, 256, 100.0, 400);
  ScanState b = ActiveScan(9, 512, 100.0, 400);
  auto placement = p.Place(FullTableDesc(), 100.0, {&b, &a}, 2, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, 3u);
}

}  // namespace
}  // namespace scanshare::ssm
