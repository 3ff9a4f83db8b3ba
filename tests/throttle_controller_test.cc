#include "ssm/throttle_controller.h"

#include <gtest/gtest.h>

#include "ssm/policies/group_throttle_policy.h"

namespace scanshare::ssm {
namespace {

SsmOptions DefaultOptions() {
  SsmOptions o;
  o.prefetch_extent_pages = 16;          // Threshold = 32 pages.
  o.max_wait_per_update = 1'000'000'000; // Effectively unbounded here.
  return o;
}

ScanState MakeScan(ScanId id, sim::PageId pos, double pps) {
  ScanState s;
  s.id = id;
  s.position = pos;
  s.speed_pps = pps;
  s.desc.estimated_duration = sim::Seconds(100);
  return s;
}

ScanGroup MakeGroup(std::vector<ScanId> members) {
  ScanGroup g;
  g.members = members;
  g.trailer = members.front();
  g.leader = members.back();
  return g;
}

TEST(ThrottleControllerTest, ZeroExtentActsAsOnePageQuantum) {
  // prefetch_extent_pages == 0 ("no prefetch") must behave as a one-page
  // quantum everywhere. Regression: the hysteresis slack used to read the
  // raw field, so a zero-extent config got zero slack while the alignment
  // paths assumed one page — EffectiveExtent() is now the single clamp.
  SsmOptions o = DefaultOptions();
  o.prefetch_extent_pages = 0;
  EXPECT_EQ(o.EffectiveExtent(), 1u);
  EXPECT_EQ(o.EffectiveDistanceThreshold(), 2u);  // 2 * effective extent.

  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 1000);
  ScanState trailer = MakeScan(1, 100, 100);
  auto g = MakeGroup({1, 2});

  // Gap 3 = threshold (2) + one-page hysteresis slack: not throttled.
  ScanState near_leader = MakeScan(2, 103, 100);
  auto near_decision = tc.Throttle(near_leader, g, trailer, c);
  EXPECT_EQ(near_decision.wait, 0u);
  EXPECT_EQ(near_decision.gap_pages, 3u);

  // Gap 4 exceeds the slack: wait for the trailer to close the two excess
  // pages at 100 pages/s = 20'000 us.
  ScanState far_leader = MakeScan(2, 104, 100);
  auto far_decision = tc.Throttle(far_leader, g, trailer, c);
  EXPECT_EQ(far_decision.gap_pages, 4u);
  EXPECT_EQ(far_decision.wait, 20'000u);
}

TEST(ThrottleControllerTest, SingletonNeverThrottled) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 1000);
  ScanState leader = MakeScan(1, 500, 100);
  auto d = tc.Throttle(leader, MakeGroup({1}), leader, c);
  EXPECT_EQ(d.wait, 0u);
}

TEST(ThrottleControllerTest, NonLeaderNeverThrottled) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 1000);
  ScanState trailer = MakeScan(1, 100, 100);
  auto g = MakeGroup({1, 2});  // Leader is scan 2; the caller is the trailer.
  auto d = tc.Throttle(trailer, g, trailer, c);
  EXPECT_EQ(d.wait, 0u);
}

TEST(ThrottleControllerTest, LeaderWithinThresholdNotThrottled) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 1000);
  ScanState trailer = MakeScan(1, 100, 100);
  ScanState leader = MakeScan(2, 130, 100);  // Gap 30 <= 32.
  auto d = tc.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 0u);
  EXPECT_EQ(d.gap_pages, 30u);
}

TEST(ThrottleControllerTest, LeaderBeyondThresholdWaits) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 100, 50.0);  // 50 pages/s.
  ScanState leader = MakeScan(2, 232, 100.0);  // Gap 132, excess 100.
  auto d = tc.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.gap_pages, 132u);
  // Excess 100 pages at trailer speed 50 pps -> 2 s.
  EXPECT_EQ(d.wait, sim::Seconds(2));
}

TEST(ThrottleControllerTest, WaitScalesWithTrailerSpeed) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 10000);
  ScanState slow_trailer = MakeScan(1, 0, 10.0);
  ScanState fast_trailer = MakeScan(1, 0, 1000.0);
  ScanState leader = MakeScan(2, 132, 100.0);
  auto g = MakeGroup({1, 2});
  auto slow = tc.Throttle(leader, g, slow_trailer, c);
  auto fast = tc.Throttle(leader, g, fast_trailer, c);
  EXPECT_GT(slow.wait, fast.wait);
}

TEST(ThrottleControllerTest, WaitClampedToPerUpdateMax) {
  SsmOptions o = DefaultOptions();
  o.max_wait_per_update = 1000;
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 0, 1.0);     // Glacial trailer.
  ScanState leader = MakeScan(2, 5000, 100.0);
  auto d = tc.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 1000u);
}

TEST(ThrottleControllerTest, ExhaustedLeaderNotThrottled) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 0, 50.0);
  ScanState leader = MakeScan(2, 500, 100.0);
  leader.throttling_exhausted = true;  // The paper's 80 % rule kicked in.
  auto d = tc.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 0u);
  EXPECT_TRUE(d.capped);
}

TEST(ThrottleControllerTest, DisabledByOption) {
  SsmOptions o = DefaultOptions();
  o.enable_throttling = false;
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 0, 50.0);
  ScanState leader = MakeScan(2, 500, 100.0);
  auto d = tc.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 0u);
}

TEST(ThrottleControllerTest, GapMeasuredAcrossWrap) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 1000);
  // Leader wrapped: trailer at 990, leader at 90 -> forward gap 100.
  ScanState trailer = MakeScan(1, 990, 100.0);
  ScanState leader = MakeScan(2, 90, 100.0);
  auto d = tc.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.gap_pages, 100u);
  EXPECT_GT(d.wait, 0u);
}

TEST(ThrottleControllerTest, CustomDistanceThreshold) {
  SsmOptions o = DefaultOptions();
  o.distance_threshold_pages = 200;
  GroupThrottlePolicy tc(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 0, 100.0);
  ScanState leader = MakeScan(2, 150, 100.0);  // Gap 150 < 200.
  auto d = tc.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 0u);
}

// ---- LeaderWait on the index-scan block axis (one-block quantum) ----

TEST(LeaderWaitTest, OneBlockOfHysteresis) {
  // Threshold 2 blocks, trailer at 4 blocks/s, waits capped at 10 s.
  const ThrottleDecision within = LeaderWait(3, 2, /*quantum=*/1, 4.0,
                                             /*exhausted=*/false,
                                             sim::Seconds(10));
  EXPECT_EQ(within.wait, 0u);
  EXPECT_FALSE(within.capped);
  EXPECT_EQ(within.gap_pages, 3u);

  // Gap = threshold + 2: the trailer closes 2 excess blocks at 4 blocks/s.
  const ThrottleDecision beyond =
      LeaderWait(4, 2, 1, 4.0, false, sim::Seconds(10));
  EXPECT_EQ(beyond.wait, sim::Millis(500));
  EXPECT_FALSE(beyond.capped);
  EXPECT_EQ(beyond.gap_pages, 4u);
}

TEST(LeaderWaitTest, WaitCappedAtMaxWait) {
  // 8 excess blocks at 1 block/s = 8 s, capped at the 3 s maximum.
  EXPECT_EQ(LeaderWait(10, 2, 1, 1.0, false, sim::Seconds(3)).wait,
            sim::Seconds(3));
}

TEST(LeaderWaitTest, ExhaustedLeaderIsCapped) {
  const ThrottleDecision d = LeaderWait(10, 2, 1, 1.0, /*exhausted=*/true,
                                        sim::Seconds(3));
  EXPECT_EQ(d.wait, 0u);
  EXPECT_TRUE(d.capped);
  // Inside the hysteresis nothing was wanted, so nothing is capped either.
  EXPECT_FALSE(LeaderWait(3, 2, 1, 1.0, true, sim::Seconds(3)).capped);
}

// ---- ChargeFairnessBudget: the 80 % rule shared by both managers ----

ThrottleDecision Wants(sim::Micros wait) {
  ThrottleDecision d;
  d.wait = wait;
  return d;
}

TEST(FairnessBudgetTest, BudgetScalesCapByTolerance) {
  EXPECT_DOUBLE_EQ(FairnessBudget(0.8, 1.0, sim::Seconds(10)), 8e6);
  EXPECT_DOUBLE_EQ(FairnessBudget(0.5, 2.0, sim::Seconds(2)), 2e6);
  EXPECT_DOUBLE_EQ(FairnessBudget(0.8, 0.0, sim::Seconds(10)), 0.0);
}

TEST(FairnessBudgetTest, PlainGrant) {
  sim::Micros spent = 100;
  bool exhausted = false;
  const ThrottleDecision c =
      ChargeFairnessBudget(Wants(400), 1000.0, &spent, &exhausted);
  EXPECT_EQ(c.wait, 400u);
  EXPECT_FALSE(c.capped);
  EXPECT_EQ(spent, 500u);
  EXPECT_FALSE(exhausted);
}

TEST(FairnessBudgetTest, GrantClampedToBudgetLeft) {
  sim::Micros spent = 700;
  bool exhausted = false;
  const ThrottleDecision c =
      ChargeFairnessBudget(Wants(400), 1000.0, &spent, &exhausted);
  EXPECT_EQ(c.wait, 300u);  // Clamped, but still a grant...
  EXPECT_FALSE(c.capped);   // ...so no suppression.
  EXPECT_EQ(spent, 1000u);
  EXPECT_TRUE(exhausted);
}

TEST(FairnessBudgetTest, UsedUpBudgetSuppresses) {
  sim::Micros spent = 1000;
  bool exhausted = false;
  const ThrottleDecision c =
      ChargeFairnessBudget(Wants(400), 1000.0, &spent, &exhausted);
  EXPECT_EQ(c.wait, 0u);
  EXPECT_TRUE(c.capped);
  EXPECT_EQ(spent, 1000u);
  EXPECT_TRUE(exhausted);
}

TEST(FairnessBudgetTest, SubMicrosecondResidueSuppresses) {
  sim::Micros spent = 1;
  bool exhausted = false;
  // 0.5 us left: the grant truncates to zero, which removed the wait.
  const ThrottleDecision c =
      ChargeFairnessBudget(Wants(1), 1.5, &spent, &exhausted);
  EXPECT_EQ(c.wait, 0u);
  EXPECT_TRUE(c.capped);
  EXPECT_EQ(spent, 1u);
  EXPECT_TRUE(exhausted);
}

TEST(FairnessBudgetTest, CappedDecisionCountsOnce) {
  sim::Micros spent = 5000;
  bool exhausted = true;
  ThrottleDecision capped;
  capped.capped = true;
  const ThrottleDecision c =
      ChargeFairnessBudget(capped, 1000.0, &spent, &exhausted);
  EXPECT_EQ(c.wait, 0u);
  EXPECT_TRUE(c.capped);
  EXPECT_EQ(spent, 5000u);

  // No wanted wait, no suppression — whatever the budget says.
  const ThrottleDecision idle =
      ChargeFairnessBudget(ThrottleDecision{}, 1000.0, &spent, &exhausted);
  EXPECT_EQ(idle.wait, 0u);
  EXPECT_FALSE(idle.capped);
}

TEST(ThrottleControllerTest, EffectiveThresholdDefaultsToTwoExtents) {
  SsmOptions o;
  o.prefetch_extent_pages = 16;
  EXPECT_EQ(o.EffectiveDistanceThreshold(), 32u);
  o.distance_threshold_pages = 7;
  EXPECT_EQ(o.EffectiveDistanceThreshold(), 7u);
}

}  // namespace
}  // namespace scanshare::ssm
