// Randomized invariant stress for the Scan Sharing Manager: a churn of
// random scan starts, location updates, and ends across multiple tables,
// with structural invariants checked after every operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "ssm/scan_sharing_manager.h"

namespace scanshare::ssm {
namespace {

struct LiveScan {
  ScanId id;
  uint32_t table;
  sim::PageId position;
  uint64_t processed;
};

class SsmStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsmStressTest, RandomChurnPreservesInvariants) {
  SsmOptions options;
  options.bufferpool_pages = 256;
  options.prefetch_extent_pages = 16;
  options.max_wait_per_update = sim::Seconds(2);
  ScanSharingManager ssm(options);

  constexpr uint32_t kTables = 3;
  constexpr uint64_t kTablePages = 2048;

  Rng rng(GetParam());
  std::vector<LiveScan> live;
  sim::Micros now = 0;

  const auto desc_for = [&](uint32_t table) {
    ScanDescriptor d;
    d.table_id = table;
    d.table_first = static_cast<sim::PageId>(table) * kTablePages;
    d.table_end = d.table_first + kTablePages;
    d.range_first = d.table_first;
    d.range_end = d.table_end;
    d.estimated_pages = kTablePages;
    d.estimated_duration = sim::Seconds(1 + rng.Uniform(20));
    return d;
  };

  for (int step = 0; step < 5000; ++step) {
    now += 1 + rng.Uniform(5000);
    const int op = static_cast<int>(rng.Uniform(100));

    if (op < 25 || live.empty()) {
      // Start a scan on a random table.
      const uint32_t table = static_cast<uint32_t>(rng.Uniform(kTables));
      auto start = ssm.StartScan(desc_for(table), now);
      ASSERT_TRUE(start.ok());
      // Placement must land inside the scan range.
      const sim::PageId lo = static_cast<sim::PageId>(table) * kTablePages;
      ASSERT_GE(start->start_page, lo);
      ASSERT_LT(start->start_page, lo + kTablePages);
      live.push_back(LiveScan{start->id, table, start->start_page, 0});
    } else if (op < 85) {
      // Advance a random scan.
      LiveScan& scan = live[rng.Uniform(live.size())];
      const uint64_t delta = 1 + rng.Uniform(64);
      scan.processed += delta;
      const sim::PageId lo = static_cast<sim::PageId>(scan.table) * kTablePages;
      scan.position = lo + ((scan.position - lo) + delta) % kTablePages;
      auto update = ssm.UpdateLocation(scan.id, scan.position, scan.processed, now);
      ASSERT_TRUE(update.ok()) << update.status().ToString();
      ASSERT_GE(update->group_size, 1u);
      // Only leaders of non-singleton groups may be told to wait.
      if (update->wait > 0) {
        ASSERT_TRUE(update->is_leader);
        ASSERT_GE(update->group_size, 2u);
      }
      // A scan's reported speed must stay positive.
      auto state = ssm.GetScanState(scan.id);
      ASSERT_TRUE(state.ok());
      ASSERT_GT(state->speed_pps, 0.0);
    } else {
      // End a random scan.
      const size_t victim = rng.Uniform(live.size());
      ASSERT_TRUE(ssm.EndScan(live[victim].id, now).ok());
      live.erase(live.begin() + static_cast<long>(victim));
    }

    // --- invariants ---
    ASSERT_EQ(ssm.ActiveScanCount(), live.size());

    // Groups partition the active scans of each table, and each group's
    // extent equals the trailer→leader forward distance.
    for (uint32_t table = 0; table < kTables; ++table) {
      std::set<ScanId> expected;
      for (const LiveScan& s : live) {
        if (s.table == table) expected.insert(s.id);
      }
      std::set<ScanId> grouped;
      const ScanCircle circle(static_cast<sim::PageId>(table) * kTablePages,
                              static_cast<sim::PageId>(table + 1) * kTablePages);
      for (const ScanGroup& g : ssm.GroupsForTable(table)) {
        ASSERT_FALSE(g.members.empty());
        ASSERT_EQ(g.members.front(), g.trailer);
        ASSERT_EQ(g.members.back(), g.leader);
        for (ScanId m : g.members) {
          ASSERT_TRUE(expected.count(m)) << "group member not active";
          ASSERT_TRUE(grouped.insert(m).second) << "scan in two groups";
        }
        auto trailer = ssm.GetScanState(g.trailer);
        auto leader = ssm.GetScanState(g.leader);
        ASSERT_TRUE(trailer.ok() && leader.ok());
        ASSERT_EQ(g.extent_pages,
                  circle.ForwardDistance(trailer->position, leader->position));
      }
      ASSERT_EQ(grouped, expected) << "groups do not partition table scans";
    }
  }

  // The churn must have produced real sharing activity.
  EXPECT_GT(ssm.stats().scans_joined, 50u);
  EXPECT_GT(ssm.stats().regroups, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsmStressTest,
                         ::testing::Values(1u, 7u, 42u, 1337u),
                         [](const auto& tpi) {
                           return "seed" + std::to_string(tpi.param);
                         });

// Service-scale density: hundreds of concurrent scans per table — well
// past the ~100-per-table ceiling the random churn above reaches — in
// both regroup modes. The partition invariants must hold at any density;
// the extent-geometry equality additionally holds in legacy mode, where
// every update rebuilds the grouping from live positions (in adaptive
// mode groups are intentionally stale between amortized rebuilds, and
// the SSM's own audit likewise only checks geometry at rebuild points).
class SsmDensityTest : public ::testing::TestWithParam<bool> {};

TEST_P(SsmDensityTest, HundredsOfConcurrentScansPerTable) {
  const bool adaptive = GetParam();
  SsmOptions options;
  options.bufferpool_pages = 1024;
  options.prefetch_extent_pages = 16;
  options.adaptive_regroup = adaptive;
  ScanSharingManager ssm(options);

  constexpr uint32_t kTables = 2;
  constexpr uint64_t kTablePages = 8192;
  constexpr size_t kScansPerTable = 400;

  Rng rng(99);
  sim::Micros now = 0;
  std::vector<LiveScan> live;
  for (uint32_t table = 0; table < kTables; ++table) {
    for (size_t i = 0; i < kScansPerTable; ++i) {
      ScanDescriptor d;
      d.table_id = table;
      d.table_first = static_cast<sim::PageId>(table) * kTablePages;
      d.table_end = d.table_first + kTablePages;
      d.range_first = d.table_first;
      d.range_end = d.table_end;
      d.estimated_pages = kTablePages;
      d.estimated_duration = sim::Seconds(1 + rng.Uniform(20));
      auto start = ssm.StartScan(d, ++now);
      ASSERT_TRUE(start.ok());
      live.push_back(LiveScan{start->id, table, start->start_page, 0});
    }
  }
  ASSERT_EQ(ssm.ActiveScanCount(), kTables * kScansPerTable);

  const auto check_partition = [&] {
    for (uint32_t table = 0; table < kTables; ++table) {
      std::set<ScanId> expected;
      for (const LiveScan& s : live) {
        if (s.table == table) expected.insert(s.id);
      }
      std::set<ScanId> grouped;
      const ScanCircle circle(
          static_cast<sim::PageId>(table) * kTablePages,
          static_cast<sim::PageId>(table + 1) * kTablePages);
      for (const ScanGroup& g : ssm.GroupsForTable(table)) {
        ASSERT_FALSE(g.members.empty());
        ASSERT_EQ(g.members.front(), g.trailer);
        ASSERT_EQ(g.members.back(), g.leader);
        for (ScanId m : g.members) {
          ASSERT_TRUE(expected.count(m)) << "group member not active";
          ASSERT_TRUE(grouped.insert(m).second) << "scan in two groups";
        }
        if (!adaptive) {
          auto trailer = ssm.GetScanState(g.trailer);
          auto leader = ssm.GetScanState(g.leader);
          ASSERT_TRUE(trailer.ok() && leader.ok());
          ASSERT_EQ(g.extent_pages, circle.ForwardDistance(
                                        trailer->position, leader->position));
        }
      }
      ASSERT_EQ(grouped, expected) << "groups do not partition table scans";
    }
  };
  check_partition();

  // Random churn at full density: mostly updates, with enough start/end
  // traffic that the registry mutates while dense.
  for (int step = 0; step < 4000; ++step) {
    now += 1 + rng.Uniform(2000);
    const int op = static_cast<int>(rng.Uniform(100));
    if (op < 5) {
      const uint32_t table = static_cast<uint32_t>(rng.Uniform(kTables));
      ScanDescriptor d;
      d.table_id = table;
      d.table_first = static_cast<sim::PageId>(table) * kTablePages;
      d.table_end = d.table_first + kTablePages;
      d.range_first = d.table_first;
      d.range_end = d.table_end;
      d.estimated_pages = kTablePages;
      d.estimated_duration = sim::Seconds(1 + rng.Uniform(20));
      auto start = ssm.StartScan(d, now);
      ASSERT_TRUE(start.ok());
      live.push_back(LiveScan{start->id, table, start->start_page, 0});
    } else if (op < 95) {
      LiveScan& scan = live[rng.Uniform(live.size())];
      const uint64_t delta = 1 + rng.Uniform(64);
      scan.processed += delta;
      const sim::PageId lo =
          static_cast<sim::PageId>(scan.table) * kTablePages;
      scan.position = lo + ((scan.position - lo) + delta) % kTablePages;
      auto update =
          ssm.UpdateLocation(scan.id, scan.position, scan.processed, now);
      ASSERT_TRUE(update.ok()) << update.status().ToString();
    } else {
      const size_t victim = rng.Uniform(live.size());
      ASSERT_TRUE(ssm.EndScan(live[victim].id, now).ok());
      live.erase(live.begin() + static_cast<long>(victim));
    }
    ASSERT_EQ(ssm.ActiveScanCount(), live.size());
    if (step % 250 == 0) {
      check_partition();
      ASSERT_TRUE(ssm.CheckInvariants().ok());
    }
  }
  check_partition();
  ASSERT_TRUE(ssm.CheckInvariants().ok());
  ASSERT_GT(live.size(), 2 * 100u) << "density fell below the target";
  while (!live.empty()) {
    ASSERT_TRUE(ssm.EndScan(live.back().id, ++now).ok());
    live.pop_back();
  }
  EXPECT_EQ(ssm.ActiveScanCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RegroupModes, SsmDensityTest, ::testing::Bool(),
                         [](const auto& tpi) {
                           return tpi.param ? "adaptive" : "legacy";
                         });

// Fairness-cap exhaustion under mass contention: one fast leader dragging
// hundreds of slow trailers in a single group. The 80 % cap is a
// PER-SCAN budget (0.8 x the leader's estimated duration) — no matter how
// many trailers demand throttling, the leader's inserted waits must stay
// within its own budget, and once the budget drains the controller must
// switch to cap suppressions instead of granting further waits.
TEST(SsmStressAccountingTest, FairnessCapExhaustsUnderHundredsOfTrailers) {
  SsmOptions options;
  options.bufferpool_pages = 4096;
  options.prefetch_extent_pages = 16;
  options.adaptive_regroup = true;  // Service-scale configuration.
  ScanSharingManager ssm(options);

  constexpr uint64_t kTablePages = 1 << 16;
  constexpr size_t kTrailers = 300;
  // A short estimated duration makes the 80 % budget small enough to
  // exhaust quickly: cap = 0.8 * 2 s = 1.6 s of granted waits.
  ScanDescriptor d;
  d.table_id = 1;
  d.table_first = 0;
  d.table_end = kTablePages;
  d.range_first = 0;
  d.range_end = kTablePages;
  d.estimated_pages = kTablePages;
  d.estimated_duration = sim::Seconds(2);

  sim::Micros now = 0;
  auto fast = ssm.StartScan(d, ++now);
  ASSERT_TRUE(fast.ok());
  std::vector<ScanId> trailers;
  for (size_t i = 0; i < kTrailers; ++i) {
    auto s = ssm.StartScan(d, ++now);
    ASSERT_TRUE(s.ok());
    trailers.push_back(s->id);
  }

  Rng rng(31);
  uint64_t fast_pos = fast->start_page;
  uint64_t fast_processed = 0;
  std::vector<uint64_t> trailer_processed(kTrailers, 0);
  std::vector<sim::PageId> trailer_pos(kTrailers);
  for (size_t i = 0; i < kTrailers; ++i) trailer_pos[i] = 0;

  uint64_t granted_to_fast = 0;
  for (int round = 0; round < 1500; ++round) {
    now += 1000 + rng.Uniform(4000);
    // The fast scan races ahead...
    const uint64_t da = 16 + rng.Uniform(16);
    fast_pos = (fast_pos + da) % kTablePages;
    fast_processed += da;
    auto ua = ssm.UpdateLocation(fast->id, fast_pos, fast_processed, now);
    ASSERT_TRUE(ua.ok()) << ua.status().ToString();
    granted_to_fast += ua->wait;
    // ... while a rotating handful of the trailers crawl.
    for (size_t k = 0; k < 10; ++k) {
      const size_t i = (static_cast<size_t>(round) * 10 + k) % kTrailers;
      trailer_processed[i] += 1;
      trailer_pos[i] = (trailer_pos[i] + 1) % kTablePages;
      auto ut = ssm.UpdateLocation(trailers[i], trailer_pos[i],
                                   trailer_processed[i], now);
      ASSERT_TRUE(ut.ok()) << ut.status().ToString();
    }
  }

  const SsmStats& stats = ssm.stats();
  // The leader was really throttled, then really ran out of budget.
  EXPECT_GT(stats.throttle_events, 0u);
  EXPECT_GT(stats.cap_suppressions, 0u)
      << "budget never exhausted — the exhaustion path went untested";
  // The per-scan budget held: everything granted to the fast scan fits in
  // 0.8 x its estimated duration (the final grant is clamped to the
  // remaining budget, so there is no overshoot allowance).
  EXPECT_LE(granted_to_fast,
            static_cast<uint64_t>(options.fairness_cap *
                                  static_cast<double>(d.estimated_duration)));
  ASSERT_TRUE(ssm.CheckInvariants().ok());
}

// Throttle-wait accounting: total_wait equals the sum of granted waits.
TEST(SsmStressAccountingTest, TotalWaitMatchesGrants) {
  SsmOptions options;
  options.bufferpool_pages = 512;
  options.prefetch_extent_pages = 16;
  ScanSharingManager ssm(options);

  ScanDescriptor d;
  d.table_id = 1;
  d.table_first = 0;
  d.table_end = 4096;
  d.range_first = 0;
  d.range_end = 4096;
  d.estimated_pages = 4096;
  d.estimated_duration = sim::Seconds(100);

  auto a = ssm.StartScan(d, 0);
  auto b = ssm.StartScan(d, 0);
  ASSERT_TRUE(a.ok() && b.ok());

  Rng rng(5);
  sim::Micros now = 0;
  uint64_t granted = 0;
  sim::PageId pa = 0, pb = 0;
  uint64_t na = 0, nb = 0;
  for (int i = 0; i < 2000; ++i) {
    now += 1000 + rng.Uniform(9000);
    // A fast, B slow: A gets throttled.
    const uint64_t da = 8 + rng.Uniform(24);
    const uint64_t db = 1 + rng.Uniform(4);
    pa = (pa + da) % 4096;
    pb = (pb + db) % 4096;
    na += da;
    nb += db;
    auto ua = ssm.UpdateLocation(a->id, pa, na, now);
    auto ub = ssm.UpdateLocation(b->id, pb, nb, now);
    ASSERT_TRUE(ua.ok() && ub.ok());
    granted += ua->wait + ub->wait;
  }
  EXPECT_EQ(ssm.stats().total_wait, granted);
  EXPECT_GT(granted, 0u);
}

}  // namespace
}  // namespace scanshare::ssm
