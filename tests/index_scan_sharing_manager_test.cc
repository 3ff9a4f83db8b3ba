#include "ssm/index_scan_sharing_manager.h"

#include <gtest/gtest.h>

namespace scanshare::ssm {
namespace {

using buffer::PagePriority;

IsmOptions TestOptions() {
  IsmOptions o;
  o.bufferpool_blocks = 16;
  o.distance_threshold_blocks = 2;
  o.max_wait_per_update = sim::Seconds(1000);
  return o;
}

IndexScanDescriptor Desc(uint32_t index = 1, int64_t lo = 0, int64_t hi = 6,
                         uint64_t blocks = 70) {
  IndexScanDescriptor d;
  d.index_id = index;
  d.start_key = lo;
  d.end_key = hi;
  d.estimated_blocks = blocks;
  d.estimated_duration = sim::Seconds(10);
  return d;
}

TEST(IsmTest, FirstScanStartsAtRangeBegin) {
  IndexScanSharingManager ism(TestOptions());
  auto start = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(start.ok());
  EXPECT_FALSE(start->placed);
  EXPECT_EQ(start->joined_scan, kInvalidScanId);
  EXPECT_EQ(ism.ActiveScanCount(), 1u);
}

TEST(IsmTest, DescriptorValidation) {
  IndexScanSharingManager ism(TestOptions());
  IndexScanDescriptor d = Desc();
  d.end_key = d.start_key - 1;
  EXPECT_FALSE(ism.StartIndexScan(d, 0).ok());
  d = Desc();
  d.estimated_blocks = 0;
  EXPECT_FALSE(ism.StartIndexScan(d, 0).ok());
  d = Desc();
  d.estimated_duration = 0;
  EXPECT_FALSE(ism.StartIndexScan(d, 0).ok());
  d = Desc();
  d.throttle_tolerance = -1;
  EXPECT_FALSE(ism.StartIndexScan(d, 0).ok());
}

TEST(IsmTest, SecondScanJoinsAndInheritsAnchor) {
  IndexScanSharingManager ism(TestOptions());
  auto a = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  // A progresses to (key 2, pos 1) after 20 blocks.
  ASSERT_TRUE(
      ism.UpdateIndexScan(a->id, IndexScanLocation{2, 1}, 20, sim::Seconds(1))
          .ok());

  auto b = ism.StartIndexScan(Desc(), sim::Seconds(1));
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->placed);
  EXPECT_EQ(b->joined_scan, a->id);
  EXPECT_EQ(b->start_location.key, 2);
  EXPECT_EQ(b->start_location.pos_in_key, 1u);

  auto sa = ism.GetScanState(a->id);
  auto sb = ism.GetScanState(b->id);
  ASSERT_TRUE(sa.ok() && sb.ok());
  EXPECT_EQ(sa->anchor, sb->anchor);
  EXPECT_EQ(sb->anchor_offset, sa->anchor_offset);
  // Same anchor => one group of two.
  auto groups = ism.GroupsForIndex(1);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 2u);
}

TEST(IsmTest, ScanOutsideRangeNotJoined) {
  IndexScanSharingManager ism(TestOptions());
  auto a = ism.StartIndexScan(Desc(1, 0, 6), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(a->id, IndexScanLocation{1, 0}, 10, sim::Seconds(1))
          .ok());
  // New scan covers keys [4, 6]; A is at key 1 — no join.
  auto b = ism.StartIndexScan(Desc(1, 4, 6, 30), sim::Seconds(1));
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->placed);
  // Separate anchors => separate groups.
  EXPECT_EQ(ism.GroupsForIndex(1).size(), 2u);
}

TEST(IsmTest, DifferentIndexesNeverInteract) {
  IndexScanSharingManager ism(TestOptions());
  auto a = ism.StartIndexScan(Desc(1), 0);
  auto b = ism.StartIndexScan(Desc(2), 0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(b->placed);
  EXPECT_EQ(ism.GroupsForIndex(1).size(), 1u);
  EXPECT_EQ(ism.GroupsForIndex(2).size(), 1u);
}

TEST(IsmTest, LeaderThrottledOnOffsetGap) {
  IndexScanSharingManager ism(TestOptions());
  auto a = ism.StartIndexScan(Desc(), 0);
  auto b = ism.StartIndexScan(Desc(), 0);  // Joins A at offset 0.
  ASSERT_TRUE(a.ok() && b.ok());
  // B crawls 1 block/s; A sprints 10 blocks ahead (gap 9 > threshold 2).
  ASSERT_TRUE(
      ism.UpdateIndexScan(b->id, IndexScanLocation{0, 1}, 1, sim::Seconds(1))
          .ok());
  auto ua =
      ism.UpdateIndexScan(a->id, IndexScanLocation{1, 0}, 10, sim::Seconds(1));
  ASSERT_TRUE(ua.ok());
  EXPECT_TRUE(ua->is_leader);
  EXPECT_EQ(ua->gap_blocks, 9u);
  // Excess 7 blocks at 1 block/s -> 7 s wait.
  EXPECT_EQ(ua->wait, sim::Seconds(7));
  EXPECT_EQ(ism.stats().throttle_events, 1u);
}

TEST(IsmTest, PriorityAdviceLeaderHighTrailerLow) {
  IndexScanSharingManager ism(TestOptions());
  auto a = ism.StartIndexScan(Desc(), 0);
  auto b = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(b->id, IndexScanLocation{0, 1}, 1, sim::Seconds(1))
          .ok());
  auto ua =
      ism.UpdateIndexScan(a->id, IndexScanLocation{0, 4}, 4, sim::Seconds(1));
  ASSERT_TRUE(ua.ok());
  EXPECT_EQ(ua->priority, PagePriority::kHigh);  // Leader.
  auto ub = ism.UpdateIndexScan(b->id, IndexScanLocation{0, 2}, 2,
                                sim::Seconds(1) + 1);
  ASSERT_TRUE(ub.ok());
  EXPECT_TRUE(ub->is_trailer);
  EXPECT_EQ(ub->priority, PagePriority::kLow);  // Successor 2 blocks ahead.
}

TEST(IsmTest, CoLocatedTrailerKeptHigh) {
  IndexScanSharingManager ism(TestOptions());
  auto a = ism.StartIndexScan(Desc(), 0);
  auto b = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(a.ok() && b.ok());
  // Both at the same offset: the tie-trailer must not mark Low.
  auto ub =
      ism.UpdateIndexScan(b->id, IndexScanLocation{0, 0}, 0, sim::Seconds(1));
  ASSERT_TRUE(ub.ok());
  if (ub->is_trailer && ub->group_size >= 2) {
    EXPECT_EQ(ub->priority, PagePriority::kHigh);
  }
}

TEST(IsmTest, AnchorMergeOnReachingAnotherAnchor) {
  IndexScanSharingManager ism(TestOptions());
  // A starts fresh at range begin: anchor at (0,0).
  auto a = ism.StartIndexScan(Desc(1, 0, 6), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(a->id, IndexScanLocation{3, 0}, 30, sim::Seconds(1))
          .ok());
  // B covers [3,6] only; A at key 3 is in range -> B joins A's anchor.
  auto b = ism.StartIndexScan(Desc(1, 3, 6, 40), sim::Seconds(1));
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->placed);

  // C covers [2,6]; starts fresh at (2,0) with its own anchor.
  auto c = ism.StartIndexScan(Desc(1, 2, 2, 10), sim::Seconds(1));
  ASSERT_TRUE(c.ok());
  // A wrapped around and reaches (2,0) == C's anchor: merge.
  auto ua = ism.UpdateIndexScan(a->id, IndexScanLocation{2, 0}, 60,
                                sim::Seconds(2));
  ASSERT_TRUE(ua.ok());
  EXPECT_TRUE(ua->anchor_merged);
  auto sa = ism.GetScanState(a->id);
  auto sc = ism.GetScanState(c->id);
  ASSERT_TRUE(sa.ok() && sc.ok());
  EXPECT_EQ(sa->anchor, sc->anchor);
  EXPECT_EQ(sa->anchor_offset, 0u);  // A is AT the anchor location.
  EXPECT_EQ(ism.stats().anchor_merges, 1u);
}

TEST(IsmTest, LastFinishedLocationHarvested) {
  IndexScanSharingManager ism(TestOptions());
  auto a = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(a->id, IndexScanLocation{5, 2}, 55, sim::Seconds(5))
          .ok());
  ASSERT_TRUE(ism.EndIndexScan(a->id, sim::Seconds(6)).ok());
  EXPECT_EQ(ism.ActiveScanCount(), 0u);

  auto b = ism.StartIndexScan(Desc(), sim::Seconds(7));
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->placed);
  EXPECT_EQ(b->start_location.key, 5);
  EXPECT_EQ(b->start_location.pos_in_key, 2u);
}

TEST(IsmTest, FairnessCapWithTolerance) {
  IsmOptions o = TestOptions();
  o.fairness_cap = 0.5;
  IndexScanSharingManager ism(o);
  IndexScanDescriptor fast = Desc();
  fast.estimated_duration = sim::Seconds(2);  // Cap = 1 s.
  fast.throttle_tolerance = 2.0;              // Budget = 2 s.
  auto a = ism.StartIndexScan(fast, 0);
  auto b = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(b->id, IndexScanLocation{0, 1}, 1, sim::Seconds(1))
          .ok());
  // Gap 11 blocks (within the 16-block grouping budget), crawling trailer
  // at 1 block/s: raw wait (11-2)/1 = 9 s, clamped to the 2 s budget.
  auto ua =
      ism.UpdateIndexScan(a->id, IndexScanLocation{1, 2}, 12, sim::Seconds(1));
  ASSERT_TRUE(ua.ok());
  EXPECT_EQ(ua->wait, sim::Seconds(2));
  auto state = ism.GetScanState(a->id);
  EXPECT_TRUE(state->throttling_exhausted);
}

// ---- cap_suppressions follows the table-scan rule: one count per update
// on which the fairness cap removed a wanted wait ----

TEST(IsmTest, GapInsideHysteresisIsNoSuppression) {
  IndexScanSharingManager ism(TestOptions());  // Threshold 2 blocks.
  auto a = ism.StartIndexScan(Desc(), 0);
  auto b = ism.StartIndexScan(Desc(), 0);  // Joins A's anchor at offset 0.
  ASSERT_TRUE(a.ok() && b.ok());
  // Leader A at offset 3 = threshold + one block of hysteresis: no wait
  // was wanted, so the cap removed nothing.
  auto ua =
      ism.UpdateIndexScan(a->id, IndexScanLocation{0, 3}, 3, sim::Seconds(1));
  ASSERT_TRUE(ua.ok());
  EXPECT_TRUE(ua->is_leader);
  EXPECT_EQ(ua->gap_blocks, 3u);
  EXPECT_EQ(ua->wait, 0u);
  EXPECT_FALSE(ism.GetScanState(a->id)->throttling_exhausted);
  EXPECT_EQ(ism.stats().cap_suppressions, 0u);
}

TEST(IsmTest, ExhaustedLeaderCountsOneSuppressionPerUpdate) {
  IsmOptions o = TestOptions();
  o.fairness_cap = 0.5;
  IndexScanSharingManager ism(o);
  IndexScanDescriptor fast = Desc();
  fast.estimated_duration = sim::Seconds(2);  // Budget = 1 s.
  auto a = ism.StartIndexScan(fast, 0);
  auto b = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(b->id, IndexScanLocation{0, 1}, 1, sim::Seconds(1))
          .ok());
  // Raw wait (11 - 2) / 1 = 9 s, clamped to the 1 s budget: a grant that
  // exhausts A.
  auto first =
      ism.UpdateIndexScan(a->id, IndexScanLocation{1, 2}, 12, sim::Seconds(1));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->wait, sim::Seconds(1));
  EXPECT_TRUE(ism.GetScanState(a->id)->throttling_exhausted);
  EXPECT_EQ(ism.stats().throttle_events, 1u);
  EXPECT_EQ(ism.stats().cap_suppressions, 0u);

  // Every later update beyond the hysteresis wanted a wait the cap removed.
  for (uint64_t step = 1; step <= 2; ++step) {
    auto later = ism.UpdateIndexScan(
        a->id, IndexScanLocation{1, static_cast<uint32_t>(2 + step)},
        12 + step, sim::Seconds(2 + step));
    ASSERT_TRUE(later.ok());
    EXPECT_GT(later->gap_blocks, 3u);
    EXPECT_EQ(later->wait, 0u);
    EXPECT_EQ(ism.stats().cap_suppressions, step);
  }
  EXPECT_EQ(ism.stats().throttle_events, 1u);
}

TEST(IsmTest, SubMicrosecondBudgetResidueIsASuppression) {
  IsmOptions o = TestOptions();
  o.fairness_cap = 0.5;
  o.max_wait_per_update = 1;  // 1 us per update.
  IndexScanSharingManager ism(o);
  IndexScanDescriptor leader = Desc();
  leader.estimated_duration = 3;  // Budget = 1.5 us.
  auto a = ism.StartIndexScan(leader, 0);
  auto b = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(b->id, IndexScanLocation{0, 1}, 1, sim::Seconds(1))
          .ok());
  auto first =
      ism.UpdateIndexScan(a->id, IndexScanLocation{1, 0}, 10, sim::Seconds(1));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->wait, 1u);  // 1 us granted, 0.5 us left.
  EXPECT_EQ(ism.stats().cap_suppressions, 0u);

  // The next 1 us grant truncates to zero: the scan is exhausted and the
  // update counts as one suppression, as in the table-scan manager.
  auto second = ism.UpdateIndexScan(a->id, IndexScanLocation{1, 1}, 11,
                                    sim::Seconds(1) + 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->wait, 0u);
  EXPECT_TRUE(ism.GetScanState(a->id)->throttling_exhausted);
  EXPECT_EQ(ism.stats().cap_suppressions, 1u);
  EXPECT_EQ(ism.stats().throttle_events, 1u);
}

TEST(IsmTest, UpdateUnknownScanFails) {
  IndexScanSharingManager ism(TestOptions());
  EXPECT_EQ(ism.UpdateIndexScan(99, IndexScanLocation{0, 0}, 0, 0)
                .status()
                .code(),
            Status::Code::kNotFound);
  EXPECT_EQ(ism.EndIndexScan(99, 0).code(), Status::Code::kNotFound);
}

// The ISM keeps the SSM's speed window: a second report at the window's
// own timestamp (1 ms) leaves it open, so at 2 ms the speed is 10 blocks
// over 1 ms, not the 5 blocks since the second report. The anchor offset
// still counts every block once.
TEST(IsmTest, SameTimestampUpdateKeepsTheSpeedWindowOpen) {
  IndexScanSharingManager ism(TestOptions());
  auto a = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(a->id, IndexScanLocation{0, 5}, 5, sim::Millis(1))
          .ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(a->id, IndexScanLocation{1, 0}, 10, sim::Millis(1))
          .ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(a->id, IndexScanLocation{1, 5}, 15, sim::Millis(2))
          .ok());
  auto state = ism.GetScanState(a->id);
  ASSERT_TRUE(state.ok());
  EXPECT_DOUBLE_EQ(state->speed_bps, 10'000.0);
  EXPECT_EQ(state->anchor_offset, 15u);
}

TEST(IsmTest, StatsCountLifecycle) {
  IndexScanSharingManager ism(TestOptions());
  auto a = ism.StartIndexScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(
      ism.UpdateIndexScan(a->id, IndexScanLocation{1, 0}, 10, 1000).ok());
  ASSERT_TRUE(ism.EndIndexScan(a->id, 2000).ok());
  EXPECT_EQ(ism.stats().scans_started, 1u);
  EXPECT_EQ(ism.stats().updates, 1u);
  EXPECT_EQ(ism.stats().scans_ended, 1u);
}

// ---- grouping on the anchor axes (the partial-order Fig. 14) ----

// Two anchors, each holding a pair of scans 3 blocks apart: A (offset 5)
// behind B (8) on B's anchor, C (0) behind D (3) on D's. Built with
// placement off, so every scan starts on its own anchor, and with A and C
// reaching B's and D's anchors to merge into them.
std::vector<ScanGroup> TwoAnchorPairs(uint64_t budget_blocks) {
  IsmOptions options = TestOptions();
  options.enable_smart_placement = false;
  options.bufferpool_blocks = budget_blocks;
  IndexScanSharingManager ism(options);
  auto a = ism.StartIndexScan(Desc(1, 0, 6), 0);
  auto b = ism.StartIndexScan(Desc(1, 2, 6), 0);
  auto c = ism.StartIndexScan(Desc(1, 4, 6), 0);
  auto d = ism.StartIndexScan(Desc(1, 5, 6), 0);
  EXPECT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  const auto update = [&](ScanId id, IndexScanLocation at, uint64_t blocks) {
    auto r = ism.UpdateIndexScan(id, at, blocks, sim::Seconds(1));
    EXPECT_TRUE(r.ok());
    return r.ok() && r->anchor_merged;
  };
  update(b->id, {2, 8}, 8);
  EXPECT_TRUE(update(a->id, {2, 0}, 0));  // Reaches B's anchor.
  update(a->id, {2, 5}, 5);
  update(d->id, {5, 3}, 3);
  EXPECT_TRUE(update(c->id, {5, 0}, 0));  // Reaches D's anchor.
  return ism.GroupsForIndex(1);
}

TEST(IsmGroupingTest, OnlySameAnchorScansMerge) {
  const auto groups = TwoAnchorPairs(/*budget_blocks=*/100);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members, (std::vector<ScanId>{1, 2}));
  EXPECT_EQ(groups[0].extent_pages, 3u);
  EXPECT_EQ(groups[1].members, (std::vector<ScanId>{3, 4}));
  EXPECT_EQ(groups[1].extent_pages, 3u);
}

// Room for one gap of 3: equal gaps break ties on the back scan's offset
// (C's 0 before A's 5), across anchors — not on anchor order, which would
// pick A's pair.
TEST(IsmGroupingTest, EqualGapsTieOnTheBackScansOffset) {
  const auto groups = TwoAnchorPairs(/*budget_blocks=*/3);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members, (std::vector<ScanId>{1}));
  EXPECT_EQ(groups[1].members, (std::vector<ScanId>{2}));
  EXPECT_EQ(groups[2].members, (std::vector<ScanId>{3, 4}));
  EXPECT_EQ(groups[2].trailer, 3u);
  EXPECT_EQ(groups[2].leader, 4u);
}

}  // namespace
}  // namespace scanshare::ssm
