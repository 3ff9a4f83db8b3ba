#include "ssm/scan_sharing_manager.h"

#include <gtest/gtest.h>

#include <vector>

namespace scanshare::ssm {
namespace {

using buffer::PagePriority;

SsmOptions TestOptions() {
  SsmOptions o;
  o.bufferpool_pages = 128;
  o.prefetch_extent_pages = 16;  // Throttle threshold 32.
  o.max_wait_per_update = 1'000'000'000;
  return o;
}

ScanDescriptor Desc(uint32_t table = 1, sim::PageId first = 0,
                    sim::PageId end = 1024) {
  ScanDescriptor d;
  d.table_id = table;
  d.table_first = first;
  d.table_end = end;
  d.range_first = first;
  d.range_end = end;
  d.estimated_pages = end - first;
  d.estimated_duration = sim::Seconds(10);  // 102.4 pages/s estimate.
  return d;
}

TEST(SsmTest, FirstScanStartsAtRangeBegin) {
  ScanSharingManager ssm(TestOptions());
  auto start = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(start.ok());
  EXPECT_EQ(start->start_page, 0u);
  EXPECT_EQ(start->joined_scan, kInvalidScanId);
  EXPECT_EQ(ssm.ActiveScanCount(), 1u);
}

TEST(SsmTest, DescriptorValidation) {
  ScanSharingManager ssm(TestOptions());
  ScanDescriptor d = Desc();
  d.table_end = d.table_first;  // Empty table.
  EXPECT_FALSE(ssm.StartScan(d, 0).ok());

  d = Desc();
  d.range_end = d.table_end + 1;  // Range outside table.
  EXPECT_FALSE(ssm.StartScan(d, 0).ok());

  d = Desc();
  d.estimated_pages = 0;
  EXPECT_FALSE(ssm.StartScan(d, 0).ok());

  d = Desc();
  d.estimated_duration = 0;
  EXPECT_FALSE(ssm.StartScan(d, 0).ok());
}

TEST(SsmTest, InconsistentTableSpanRejected) {
  ScanSharingManager ssm(TestOptions());
  ASSERT_TRUE(ssm.StartScan(Desc(1, 0, 1024), 0).ok());
  EXPECT_FALSE(ssm.StartScan(Desc(1, 0, 2048), 0).ok());
}

TEST(SsmTest, SecondScanJoinsFirst) {
  ScanSharingManager ssm(TestOptions());
  auto first = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(first.ok());
  // First scan has progressed to page 256.
  ASSERT_TRUE(ssm.UpdateLocation(first->id, 256, 256, sim::Seconds(2)).ok());

  auto second = ssm.StartScan(Desc(), sim::Seconds(2));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->joined_scan, first->id);
  EXPECT_EQ(second->start_page, 256u);
  EXPECT_EQ(ssm.stats().scans_joined, 1u);
}

TEST(SsmTest, JoinedScansFormOneGroup) {
  ScanSharingManager ssm(TestOptions());
  auto a = ssm.StartScan(Desc(), 0);
  auto b = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(a.ok() && b.ok());
  auto groups = ssm.GroupsForTable(1);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 2u);
}

TEST(SsmTest, DistantScansFormSeparateGroups) {
  SsmOptions o = TestOptions();
  o.enable_smart_placement = false;  // Force both to start at 0...
  ScanSharingManager ssm(o);
  auto a = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  // ...then move A far beyond the budget.
  ASSERT_TRUE(ssm.UpdateLocation(a->id, 600, 600, sim::Seconds(3)).ok());
  auto b = ssm.StartScan(Desc(), sim::Seconds(3));
  ASSERT_TRUE(b.ok());
  auto groups = ssm.GroupsForTable(1);
  ASSERT_EQ(groups.size(), 2u);  // 600 apart > 128-page budget.
}

TEST(SsmTest, UpdateUnknownScanFails) {
  ScanSharingManager ssm(TestOptions());
  EXPECT_EQ(ssm.UpdateLocation(99, 0, 0, 0).status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(ssm.CheckScanInvariants(99).code(), Status::Code::kNotFound);
}

TEST(SsmTest, UpdatePositionOffTableFails) {
  ScanSharingManager ssm(TestOptions());
  auto a = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(ssm.UpdateLocation(a->id, 5000, 10, 1).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(SsmTest, SpeedTracksMeasuredProgress) {
  ScanSharingManager ssm(TestOptions());
  auto a = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  // 200 pages in 1 second -> 200 pps.
  ASSERT_TRUE(ssm.UpdateLocation(a->id, 200, 200, sim::Seconds(1)).ok());
  auto state = ssm.GetScanState(a->id);
  ASSERT_TRUE(state.ok());
  EXPECT_NEAR(state->speed_pps, 200.0, 1e-9);
  // 50 more pages in the next second -> windowed speed 50 pps.
  ASSERT_TRUE(ssm.UpdateLocation(a->id, 250, 250, sim::Seconds(2)).ok());
  state = ssm.GetScanState(a->id);
  EXPECT_NEAR(state->speed_pps, 50.0, 1e-9);
}

TEST(SsmTest, LeaderThrottledWhenGroupStretches) {
  ScanSharingManager ssm(TestOptions());
  auto a = ssm.StartScan(Desc(), 0);
  auto b = ssm.StartScan(Desc(), 0);  // Joins A at page 0.
  ASSERT_TRUE(a.ok() && b.ok());
  // B crawls, A sprints: A becomes leader with a 100-page gap.
  ASSERT_TRUE(ssm.UpdateLocation(b->id, 10, 10, sim::Seconds(1)).ok());
  auto update = ssm.UpdateLocation(a->id, 110, 110, sim::Seconds(1));
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(update->is_leader);
  EXPECT_EQ(update->gap_pages, 100u);
  EXPECT_GT(update->wait, 0u);
  EXPECT_EQ(ssm.stats().throttle_events, 1u);
  EXPECT_GT(ssm.stats().total_wait, 0u);
}

TEST(SsmTest, TrailerAdvisedLowLeaderHigh) {
  ScanSharingManager ssm(TestOptions());
  auto a = ssm.StartScan(Desc(), 0);
  auto b = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(ssm.UpdateLocation(b->id, 10, 10, sim::Seconds(1)).ok());
  auto leader_update = ssm.UpdateLocation(a->id, 50, 50, sim::Seconds(1));
  ASSERT_TRUE(leader_update.ok());
  EXPECT_EQ(leader_update->priority, PagePriority::kHigh);
  auto trailer_update = ssm.UpdateLocation(b->id, 11, 11, sim::Seconds(1) + 1);
  ASSERT_TRUE(trailer_update.ok());
  EXPECT_EQ(trailer_update->priority, PagePriority::kLow);

  EXPECT_EQ(*ssm.AdvisePriority(a->id), PagePriority::kHigh);
  EXPECT_EQ(*ssm.AdvisePriority(b->id), PagePriority::kLow);
}

TEST(SsmTest, FairnessCapStopsThrottling) {
  SsmOptions o = TestOptions();
  o.fairness_cap = 0.8;
  ScanSharingManager ssm(o);
  ScanDescriptor d = Desc();
  d.estimated_duration = sim::Seconds(1);  // Cap = 0.8 s of waits.
  auto a = ssm.StartScan(d, 0);
  auto b = ssm.StartScan(d, 0);
  ASSERT_TRUE(a.ok() && b.ok());

  // Trailer at 1 pps; repeatedly stretch the leader to rack up waits.
  ASSERT_TRUE(ssm.UpdateLocation(b->id, 1, 1, sim::Seconds(1)).ok());
  sim::Micros total_wait = 0;
  bool capped_seen = false;
  for (int i = 0; i < 50; ++i) {
    // Keep the gap under the 128-page grouping budget but over the
    // 32-page throttle threshold.
    auto u = ssm.UpdateLocation(a->id, 100 + i, 100 + i,
                                sim::Seconds(1) + i + 1);
    ASSERT_TRUE(u.ok());
    total_wait += u->wait;
    if (u->wait == 0) {
      capped_seen = true;
      break;
    }
  }
  EXPECT_TRUE(capped_seen);
  auto state = ssm.GetScanState(a->id);
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->throttling_exhausted);
  // Once exhausted, no further waits ever.
  auto u = ssm.UpdateLocation(a->id, 500, 500, sim::Seconds(60));
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->wait, 0u);
}

TEST(SsmTest, EndScanRemovesAndRecordsPosition) {
  ScanSharingManager ssm(TestOptions());
  auto a = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(ssm.UpdateLocation(a->id, 768, 768, sim::Seconds(4)).ok());
  ASSERT_TRUE(ssm.EndScan(a->id, sim::Seconds(5)).ok());
  EXPECT_EQ(ssm.ActiveScanCount(), 0u);
  EXPECT_EQ(ssm.GetScanState(a->id).status().code(), Status::Code::kNotFound);

  // The paper's special case: the next scan starts at the finished scan's
  // last position to harvest leftover buffer pages.
  auto b = ssm.StartScan(Desc(), sim::Seconds(6));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->start_page, 768u);
}

TEST(SsmTest, EndScanTwiceFails) {
  ScanSharingManager ssm(TestOptions());
  auto a = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(ssm.EndScan(a->id, 1).ok());
  EXPECT_EQ(ssm.EndScan(a->id, 2).code(), Status::Code::kNotFound);
}

TEST(SsmTest, ScansOnDifferentTablesNeverGroup) {
  ScanSharingManager ssm(TestOptions());
  auto a = ssm.StartScan(Desc(1), 0);
  auto b = ssm.StartScan(Desc(2), 0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(b->joined_scan, kInvalidScanId);
  EXPECT_EQ(ssm.GroupsForTable(1).size(), 1u);
  EXPECT_EQ(ssm.GroupsForTable(2).size(), 1u);
}

TEST(SsmTest, StatsCountCalls) {
  ScanSharingManager ssm(TestOptions());
  auto a = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(ssm.UpdateLocation(a->id, 16, 16, 1000).ok());
  ASSERT_TRUE(ssm.UpdateLocation(a->id, 32, 32, 2000).ok());
  ASSERT_TRUE(ssm.EndScan(a->id, 3000).ok());
  EXPECT_EQ(ssm.stats().scans_started, 1u);
  EXPECT_EQ(ssm.stats().updates, 2u);
  EXPECT_EQ(ssm.stats().scans_ended, 1u);
}

TEST(SsmTest, StatsSumAcrossTables) {
  // The same scan lives on tables 1 and 2, once in one manager and once in
  // a manager per table: the shared manager's counters are the per-table
  // sums.
  const auto drive = [](ScanSharingManager* ssm, uint32_t table) {
    auto a = ssm->StartScan(Desc(table), 0);
    auto b = ssm->StartScan(Desc(table), 0);  // Joins A at page 0.
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(b->joined_scan, a->id);
    // B crawls, A sprints 100 pages ahead and is throttled.
    ASSERT_TRUE(ssm->UpdateLocation(b->id, 10, 10, sim::Seconds(1)).ok());
    ASSERT_TRUE(ssm->UpdateLocation(a->id, 110, 110, sim::Seconds(1)).ok());
    ASSERT_TRUE(ssm->EndScan(a->id, sim::Seconds(2)).ok());
    ASSERT_TRUE(ssm->EndScan(b->id, sim::Seconds(2)).ok());
  };
  ScanSharingManager both(TestOptions());
  ScanSharingManager one(TestOptions());
  ScanSharingManager two(TestOptions());
  drive(&both, 1);
  drive(&both, 2);
  drive(&one, 1);
  drive(&two, 2);

  const SsmStats first = one.stats();
  const SsmStats second = two.stats();
  const SsmStats total = both.stats();
  for (const auto& f : kSsmStatsCounters) {
    EXPECT_EQ(total.*f.member, first.*f.member + second.*f.member) << f.name;
  }
  EXPECT_EQ(total.scans_started, 4u);
  EXPECT_EQ(total.scans_joined, 2u);
  EXPECT_EQ(total.scans_ended, 4u);
  EXPECT_EQ(total.throttle_events, 2u);
}

TEST(SsmTest, RegroupIntervalHonoured) {
  SsmOptions o = TestOptions();
  o.regroup_interval_updates = 4;
  ScanSharingManager ssm(o);
  auto a = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(a.ok());
  const uint64_t after_start = ssm.stats().regroups;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(ssm.UpdateLocation(a->id, 16 * i, 16 * i, 1000 * i).ok());
  }
  EXPECT_EQ(ssm.stats().regroups, after_start);  // Not yet.
  ASSERT_TRUE(ssm.UpdateLocation(a->id, 64, 64, 4000).ok());
  EXPECT_EQ(ssm.stats().regroups, after_start + 1);
}

// Between regroups a scan may move several times, or move away and back.
// The circle-ordered list still holds one entry per scan, ending such a
// scan drops that entry, and the regroup re-files the rest at their
// current positions.
TEST(SsmTest, ScansMovedSeveralTimesBetweenRegroupsStayListedOnce) {
  SsmOptions o = TestOptions();
  o.regroup_interval_updates = 8;
  ScanSharingManager ssm(o);
  std::vector<ScanId> ids;
  for (int i = 0; i < 3; ++i) {
    auto s = ssm.StartScan(Desc(), 0);
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(s->start_page, 0u);
    ids.push_back(s->id);
  }
  const uint64_t regroups = ssm.stats().regroups;
  // ids[0]: 0 -> 300 -> 100; ids[1]: 0 -> 200 -> 0; ids[2]: 0 -> 50 -> 60.
  const sim::PageId path[3][2] = {{300, 100}, {200, 0}, {50, 60}};
  for (size_t step = 0; step < 2; ++step) {
    for (size_t i = 0; i < ids.size(); ++i) {
      const auto now = static_cast<sim::Micros>(1000 * (step + 1));
      ASSERT_TRUE(
          ssm.UpdateLocation(ids[i], path[i][step], 16 * (step + 1), now)
              .ok());
      ASSERT_TRUE(ssm.CheckInvariants().ok()) << "step " << step << " scan "
                                              << i;
    }
  }
  EXPECT_EQ(ssm.stats().regroups, regroups);  // Six updates, no regroup.

  ASSERT_TRUE(ssm.EndScan(ids[2], 3000).ok());
  ASSERT_TRUE(ssm.CheckInvariants().ok());
  EXPECT_EQ(ssm.stats().regroups, regroups + 1);
  const auto groups = ssm.GroupsForTable(1);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members, (std::vector<ScanId>{ids[1], ids[0]}));
  EXPECT_EQ(groups[0].extent_pages, 100u);
}

TEST(SsmTest, PartialRangeScanJoinsOverlappingScanOnly) {
  ScanSharingManager ssm(TestOptions());
  auto full = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(ssm.UpdateLocation(full->id, 100, 100, sim::Seconds(1)).ok());

  // New scan covers [512, 1024): the ongoing scan at 100 is outside.
  ScanDescriptor d = Desc();
  d.range_first = 512;
  d.range_end = 1024;
  d.estimated_pages = 512;
  auto partial = ssm.StartScan(d, sim::Seconds(1));
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->joined_scan, kInvalidScanId);
  EXPECT_EQ(partial->start_page, 512u);
}

// Satellite S3: location updates landing at the same virtual timestamp must
// not lose the pages they report. The original estimator overwrote the
// window baseline on every update, so pages reported with dt == 0 were
// never counted by any window.
TEST(SsmTest, ZeroDtUpdatesAccumulateIntoNextSpeedWindow) {
  ScanSharingManager ssm(TestOptions());
  auto scan = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(scan.ok());

  ASSERT_TRUE(ssm.UpdateLocation(scan->id, 100, 100, sim::Seconds(1)).ok());
  auto st = ssm.GetScanState(scan->id);
  ASSERT_TRUE(st.ok());
  EXPECT_DOUBLE_EQ(st->speed_pps, 100.0);

  // Same timestamp: 100 more pages, no time. The window must stay open.
  ASSERT_TRUE(ssm.UpdateLocation(scan->id, 200, 200, sim::Seconds(1)).ok());
  st = ssm.GetScanState(scan->id);
  ASSERT_TRUE(st.ok());
  EXPECT_DOUBLE_EQ(st->speed_pps, 100.0);  // No new window yet.

  // One second later the window closes over *all* 200 pages since t=1s.
  ASSERT_TRUE(ssm.UpdateLocation(scan->id, 300, 300, sim::Seconds(2)).ok());
  st = ssm.GetScanState(scan->id);
  ASSERT_TRUE(st.ok());
  EXPECT_DOUBLE_EQ(st->speed_pps, 200.0);
  EXPECT_TRUE(ssm.CheckInvariants().ok());
}

// The S3 regression seen from the throttle: a trailer whose progress came
// partly through zero-dt updates must not look slower than it is, or the
// leader's wait is inflated.
TEST(SsmTest, ZeroDtTrailerSpeedDoesNotInflateLeaderWait) {
  SsmOptions o = TestOptions();
  o.enable_smart_placement = false;  // The second scan starts at page 0.
  ScanSharingManager ssm(o);

  auto leader = ssm.StartScan(Desc(), 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(
      ssm.UpdateLocation(leader->id, 100, 100, sim::Seconds(1)).ok());

  auto trailer = ssm.StartScan(Desc(), sim::Seconds(1));
  ASSERT_TRUE(trailer.ok());
  // Trailer progress: 8 pages in half a second (16 pps), then 8 more at
  // the same timestamp, then 8 more in another half second. True speed
  // over the final window: 16 pages / 0.5 s = 32 pps.
  ASSERT_TRUE(
      ssm.UpdateLocation(trailer->id, 8, 8, sim::Seconds(1) + 500'000).ok());
  ASSERT_TRUE(
      ssm.UpdateLocation(trailer->id, 16, 16, sim::Seconds(1) + 500'000).ok());
  ASSERT_TRUE(ssm.UpdateLocation(trailer->id, 24, 24, sim::Seconds(2)).ok());
  auto ts = ssm.GetScanState(trailer->id);
  ASSERT_TRUE(ts.ok());
  EXPECT_DOUBLE_EQ(ts->speed_pps, 32.0);

  // Leader at 100, trailer at 24: gap 76 > threshold 32 + hysteresis 16.
  // Wait = (76 - 32) / 32 pps = 1.375 s. The pre-fix estimator halved the
  // trailer's measured speed (16 pps) and doubled this wait.
  auto update = ssm.UpdateLocation(leader->id, 100, 100, sim::Seconds(2));
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(update->is_leader);
  EXPECT_EQ(update->wait, 1'375'000u);
  EXPECT_TRUE(ssm.CheckInvariants().ok());
}

// Satellite S4: cap_suppressions counts exactly one suppression per update
// on which the fairness cap removed a wanted wait — never two, and never
// for a clamped-but-positive grant.
TEST(SsmTest, CapSuppressionCountedOncePerSuppressedUpdate) {
  SsmOptions o = TestOptions();
  o.enable_smart_placement = false;
  ScanSharingManager ssm(o);

  // Leader with zero throttle tolerance: its fairness budget is empty from
  // the start, so every wanted wait is suppressed.
  ScanDescriptor leader_desc = Desc();
  leader_desc.throttle_tolerance = 0.0;
  auto leader = ssm.StartScan(leader_desc, 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(
      ssm.UpdateLocation(leader->id, 100, 100, sim::Seconds(1)).ok());
  auto trailer = ssm.StartScan(Desc(), sim::Seconds(1));
  ASSERT_TRUE(trailer.ok());

  EXPECT_EQ(ssm.stats().cap_suppressions, 0u);
  for (int i = 1; i <= 3; ++i) {
    auto u = ssm.UpdateLocation(leader->id, 100, 100,
                                sim::Seconds(1) + i * 1000);
    ASSERT_TRUE(u.ok());
    EXPECT_TRUE(u->is_leader);
    EXPECT_EQ(u->wait, 0u);  // Suppressed, not inserted.
    EXPECT_EQ(ssm.stats().cap_suppressions, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(ssm.stats().throttle_events, 0u);
  EXPECT_EQ(ssm.stats().total_wait, 0u);
  EXPECT_TRUE(ssm.CheckInvariants().ok());
}

TEST(SsmTest, ClampedPositiveGrantIsNotASuppression) {
  SsmOptions o = TestOptions();
  o.enable_smart_placement = false;
  ScanSharingManager ssm(o);

  // Budget of 0.8 * 0.05 * 10 s = 400 ms, below the wanted wait, so the
  // first throttle is clamped (a grant) and later ones are suppressed.
  ScanDescriptor leader_desc = Desc();
  leader_desc.throttle_tolerance = 0.05;
  auto leader = ssm.StartScan(leader_desc, 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(
      ssm.UpdateLocation(leader->id, 100, 100, sim::Seconds(1)).ok());
  auto trailer = ssm.StartScan(Desc(), sim::Seconds(1));
  ASSERT_TRUE(trailer.ok());

  auto first = ssm.UpdateLocation(leader->id, 100, 100, sim::Seconds(2));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->wait, 400'000u);  // Clamped to the remaining budget.
  EXPECT_EQ(ssm.stats().throttle_events, 1u);
  EXPECT_EQ(ssm.stats().cap_suppressions, 0u);

  auto second = ssm.UpdateLocation(leader->id, 100, 100, sim::Seconds(3));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->wait, 0u);
  EXPECT_EQ(ssm.stats().throttle_events, 1u);
  EXPECT_EQ(ssm.stats().cap_suppressions, 1u);
  EXPECT_TRUE(ssm.CheckInvariants().ok());
}

// The audit entry point accepts every state reachable through normal use.
TEST(SsmTest, InvariantsHoldThroughMixedTraffic) {
  ScanSharingManager ssm(TestOptions());
  EXPECT_TRUE(ssm.CheckInvariants().ok());
  std::vector<ScanId> ids;
  sim::Micros now = 0;
  for (int i = 0; i < 6; ++i) {
    auto s = ssm.StartScan(Desc(), now);
    ASSERT_TRUE(s.ok());
    ids.push_back(s->id);
    EXPECT_TRUE(ssm.CheckInvariants().ok()) << "after start " << i;
    now += 100'000;
  }
  for (int round = 0; round < 10; ++round) {
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint64_t pages = (round + 1) * 16 + i * 3;
      ASSERT_TRUE(
          ssm.UpdateLocation(ids[i], (pages + 64 * i) % 1024, pages, now).ok());
      EXPECT_TRUE(ssm.CheckInvariants().ok())
          << "after update round " << round << " scan " << i;
      now += 50'000;
    }
  }
  while (!ids.empty()) {
    ASSERT_TRUE(ssm.EndScan(ids.back(), now).ok());
    ids.pop_back();
    EXPECT_TRUE(ssm.CheckInvariants().ok()) << ids.size() << " scans left";
    now += 10'000;
  }
  EXPECT_EQ(ssm.ActiveScanCount(), 0u);
}

}  // namespace
}  // namespace scanshare::ssm
