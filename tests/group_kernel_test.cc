// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Differential tests of the Fig.-14 kernel. BuildScanGroups (the
// production path: sorted input, no sort, an n - 1 edge cap) must equal
// the from-scratch reference builder (two sorts plus a union-find,
// tests/group_oracle.h) on seeded random point sets, sorted and shuffled,
// including the corners where the two designs could part: many scans at
// one position, equal gaps straddling the budget, budgets 0 and
// UINT64_MAX, circles wider than 2^32 pages. MergeAdjacentScans is also
// pinned on the index-scan shape (edges only inside an anchor, no wrap,
// the caller's tie order), and the manager's maintained circle order is
// checked against the reference after every full regroup under
// adaptive_regroup.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "group_oracle.h"
#include "ssm/group_builder.h"
#include "ssm/scan_order.h"
#include "ssm/scan_sharing_manager.h"

namespace scanshare::ssm {
namespace {

using testutil::ReferenceScanGroups;

constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();

void ExpectSameGroups(const std::vector<ScanGroup>& actual,
                      const std::vector<ScanGroup>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t g = 0; g < actual.size(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    EXPECT_EQ(actual[g].members, expected[g].members);
    EXPECT_EQ(actual[g].trailer, expected[g].trailer);
    EXPECT_EQ(actual[g].leader, expected[g].leader);
    EXPECT_EQ(actual[g].extent_pages, expected[g].extent_pages);
  }
}

// The kernel on `points` as given and sorted into circle order both equal
// the reference.
void ExpectKernelMatchesReference(std::vector<ScanPoint> points,
                                  const ScanCircle& circle, uint64_t budget) {
  const std::vector<ScanGroup> expected =
      ReferenceScanGroups(points, circle, budget);
  {
    SCOPED_TRACE("as given");
    ExpectSameGroups(BuildScanGroups(points, circle, budget), expected);
  }
  std::sort(points.begin(), points.end(), CircleOrderLess);
  {
    SCOPED_TRACE("sorted");
    ExpectSameGroups(BuildScanGroups(points, circle, budget), expected);
  }
}

void Shuffle(std::vector<ScanPoint>* points, Rng* rng) {
  for (size_t i = points->size(); i > 1; --i) {
    std::swap((*points)[i - 1], (*points)[rng->Uniform(i)]);
  }
}

// Random scan sets: a few distinct positions (so co-located scans and
// repeated gaps are common) or fully spread ones, on small, large and
// offset circles, under budgets from 0 to unlimited.
TEST(GroupKernelTest, RandomPointSetsMatchReference) {
  for (uint64_t seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0x5EED'0000ull + seed);
    const uint64_t kSpans[] = {1, 7, 100, 4096, (1ull << 33) + 12345};
    const uint64_t span = kSpans[rng.Uniform(5)];
    const uint64_t first = rng.Bernoulli(0.5) ? 0 : (1ull << 40);
    const ScanCircle circle(first, first + span);
    const size_t n = 1 + rng.Uniform(48);
    const size_t distinct = 1 + rng.Uniform(n);
    std::vector<sim::PageId> spots(distinct);
    for (sim::PageId& spot : spots) spot = first + rng.Uniform(span);

    std::vector<ScanPoint> points;
    points.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const auto id = static_cast<ScanId>(1 + rng.Uniform(1000) * 64 + i);
      points.push_back(ScanPoint{id, spots[rng.Uniform(distinct)]});
    }
    Shuffle(&points, &rng);
    const uint64_t kBudgets[] = {0, 1, span / 64, span / 8, span / 2, span,
                                 kNoLimit};
    const uint64_t budget =
        rng.Bernoulli(0.2) ? rng.Uniform(span + 1) : kBudgets[rng.Uniform(7)];
    SCOPED_TRACE("n " + std::to_string(n) + " span " + std::to_string(span) +
                 " budget " + std::to_string(budget));
    ExpectKernelMatchesReference(points, circle, budget);
    if (testing::Test::HasFatalFailure()) return;
  }
}

// All scans at one spot: every gap, the wrap edge included, is zero. The
// n - 1 cap must drop exactly the wrap edge, as the union-find did.
TEST(GroupKernelTest, ManyScansAtOnePositionDropTheWrapEdge) {
  const ScanCircle circle(0, 1000);
  std::vector<ScanPoint> points;
  for (ScanId id = 1; id <= 9; ++id) points.push_back(ScanPoint{id, 500});
  for (uint64_t budget : {uint64_t{0}, uint64_t{10}, kNoLimit}) {
    const auto groups = BuildScanGroups(points, circle, budget);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].trailer, 1u);
    EXPECT_EQ(groups[0].leader, 9u);
    EXPECT_EQ(groups[0].extent_pages, 0u);
    ExpectKernelMatchesReference(points, circle, budget);
  }
  // Plus a straggler: all zero gaps fit, so only positive gaps can be cut.
  points.push_back(ScanPoint{10, 900});
  for (uint64_t budget :
       {uint64_t{0}, uint64_t{399}, uint64_t{400}, kNoLimit}) {
    ExpectKernelMatchesReference(points, circle, budget);
  }
}

// Four equal gaps of 10 and a budget that fits two and a half of them:
// which two merge is the tie rule (trailer position, then id).
TEST(GroupKernelTest, EqualGapsStraddlingTheBudget) {
  const ScanCircle circle(0, 1000);
  const std::vector<ScanPoint> points = {
      {5, 40}, {2, 10}, {4, 30}, {1, 0}, {3, 20}};
  for (uint64_t budget = 0; budget <= 45; ++budget) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectKernelMatchesReference(points, circle, budget);
  }
  const auto groups = BuildScanGroups(points, circle, 25);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members, (std::vector<ScanId>{1, 2, 3}));
  EXPECT_EQ(groups[0].extent_pages, 20u);

  // Lattices with ties between co-located scans too.
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t step = 1 + rng.Uniform(9);
    const ScanCircle c(0, step * 64 + rng.Uniform(3));
    const size_t n = 2 + rng.Uniform(40);
    std::vector<ScanPoint> lattice;
    lattice.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      lattice.push_back(ScanPoint{static_cast<ScanId>(i + 1),
                                  step * rng.Uniform(64)});
    }
    const uint64_t budget = step * rng.Uniform(n) + rng.Uniform(step);
    ExpectKernelMatchesReference(lattice, c, budget);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(GroupKernelTest, UnlimitedBudgetOnACircleWiderThan32Bits) {
  const uint64_t span = (1ull << 40) + 3;
  const ScanCircle circle(1ull << 20, (1ull << 20) + span);
  std::vector<ScanPoint> points = {{1, (1ull << 20)},
                                   {2, (1ull << 20) + (1ull << 35)},
                                   {3, (1ull << 20) + (1ull << 39)},
                                   {4, (1ull << 20) + span - 1}};
  for (const uint64_t budget :
       {uint64_t{0}, uint64_t{1} << 35, uint64_t{1} << 39, kNoLimit}) {
    ExpectKernelMatchesReference(points, circle, budget);
  }
  // Every gap fits an unlimited budget; the widest one stays open.
  const auto groups = BuildScanGroups(points, circle, kNoLimit);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].trailer, 4u);
  EXPECT_EQ(groups[0].leader, 3u);
  EXPECT_EQ(groups[0].extent_pages, 1 + (1ull << 39));
}

// ------------------------------------------------- the index-scan shape

// Scans 1 and 2 share an axis; 3 sits on another. Without an edge between
// the axes, 3 stays alone under any budget.
TEST(MergeAdjacentScansTest, OnlyListedEdgesMerge) {
  const std::vector<ScanPoint> points = {{1, 0}, {2, 5}, {3, 4}};
  const auto groups = MergeAdjacentScans(points, {GroupEdge{0, 5}}, 100);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members, (std::vector<ScanId>{1, 2}));
  EXPECT_EQ(groups[0].extent_pages, 5u);
  EXPECT_EQ(groups[1].members, (std::vector<ScanId>{3}));
}

// Paper Fig. 6 on two axes: d(A,B)=40, d(B,C)=10, d(C,D)=15 on one,
// d(E,F)=20 on the other; the budget of 50 is global, so (A), (B,C,D),
// (E,F) with total extent 45.
TEST(MergeAdjacentScansTest, BudgetIsGlobalAcrossAxes) {
  const std::vector<ScanPoint> points = {{1, 0},  {2, 40}, {3, 50},
                                         {4, 65}, {5, 0},  {6, 20}};
  const std::vector<GroupEdge> edges = {{0, 40}, {1, 10}, {2, 15}, {4, 20}};
  const auto groups = MergeAdjacentScans(points, edges, 50);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members, (std::vector<ScanId>{1}));
  EXPECT_EQ(groups[1].members, (std::vector<ScanId>{2, 3, 4}));
  EXPECT_EQ(groups[1].trailer, 2u);
  EXPECT_EQ(groups[1].leader, 4u);
  EXPECT_EQ(groups[1].extent_pages, 25u);
  EXPECT_EQ(groups[2].members, (std::vector<ScanId>{5, 6}));
  EXPECT_EQ(groups[2].extent_pages, 20u);
}

TEST(MergeAdjacentScansTest, EmptyAndSingle) {
  EXPECT_TRUE(MergeAdjacentScans({}, {}, 10).empty());
  const auto one = MergeAdjacentScans({{7, 3}}, {}, 10);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].leader, 7u);
  EXPECT_EQ(one[0].trailer, 7u);
  EXPECT_EQ(one[0].extent_pages, 0u);
}

// Equal gaps are taken in the caller's list order, not in index order:
// with room for one gap of 3, the edge listed first wins.
TEST(MergeAdjacentScansTest, EqualGapsFollowTheCallersTieOrder) {
  const std::vector<ScanPoint> points = {{1, 5}, {2, 8}, {3, 0}, {4, 3}};
  const auto later_first =
      MergeAdjacentScans(points, {GroupEdge{2, 3}, GroupEdge{0, 3}}, 3);
  ASSERT_EQ(later_first.size(), 3u);
  EXPECT_EQ(later_first[0].members, (std::vector<ScanId>{1}));
  EXPECT_EQ(later_first[1].members, (std::vector<ScanId>{2}));
  EXPECT_EQ(later_first[2].members, (std::vector<ScanId>{3, 4}));
  const auto index_first =
      MergeAdjacentScans(points, {GroupEdge{0, 3}, GroupEdge{2, 3}}, 3);
  ASSERT_EQ(index_first.size(), 3u);
  EXPECT_EQ(index_first[0].members, (std::vector<ScanId>{1, 2}));
}

// ------------------------------------------------------- the reverse index

TEST(GroupIndexTest, MapsEveryMemberToItsGroup) {
  GroupIndex index;
  EXPECT_EQ(index.Find(1), GroupIndex::kNotFound);
  std::vector<ScanGroup> groups(3);
  groups[0].members = {5, 1};
  groups[1].members = {2};
  for (ScanId id = 100; id < 400; ++id) groups[2].members.push_back(id);
  index.Assign(groups);
  EXPECT_EQ(index.size(), 303u);
  EXPECT_EQ(index.Find(5), 0u);
  EXPECT_EQ(index.Find(1), 0u);
  EXPECT_EQ(index.Find(2), 1u);
  for (ScanId id = 100; id < 400; ++id) EXPECT_EQ(index.Find(id), 2u);
  EXPECT_EQ(index.Find(3), GroupIndex::kNotFound);
  EXPECT_EQ(index.Find(kInvalidScanId), GroupIndex::kNotFound);

  // A scan listed twice maps to the later group and counts once.
  groups[1].members.push_back(5);
  index.Assign(groups);
  EXPECT_EQ(index.size(), 303u);
  EXPECT_EQ(index.Find(5), 1u);

  index.Assign({});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(5), GroupIndex::kNotFound);
}

// ------------------------------------------- the manager's maintained order

// Seeded starts, updates and ends under adaptive_regroup, where scans move
// several times between full regroups and starts/ends splice the grouping
// in place. After every full regroup the groups equal the reference over
// the scans' current positions.
TEST(GroupKernelTest, AdaptiveRegroupMatchesReferenceAfterEveryRegroup) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0xADA9'0000ull + seed);
    SsmOptions options;
    options.adaptive_regroup = true;
    options.bufferpool_pages = 8 + rng.Uniform(120);
    options.prefetch_extent_pages = 4;
    ScanSharingManager ssm(options);

    const uint64_t span = 64 + rng.Uniform(400);
    const ScanCircle circle(0, span);
    ScanDescriptor desc;
    desc.table_id = 3;
    desc.table_first = 0;
    desc.table_end = span;
    desc.range_first = 0;
    desc.range_end = span;
    desc.estimated_pages = span;
    desc.estimated_duration = sim::Seconds(10);

    std::map<ScanId, sim::PageId> positions;
    std::map<ScanId, uint64_t> pages;
    sim::Micros now = 0;
    uint64_t regroups = 0;
    uint64_t checked = 0;
    for (int step = 0; step < 1500; ++step) {
      now += 1 + rng.Uniform(5'000);
      const double coin = rng.NextDouble();
      if (positions.empty() || (positions.size() < 120 && coin < 0.08)) {
        auto started = ssm.StartScan(desc, now);
        ASSERT_TRUE(started.ok()) << started.status().ToString();
        positions[started->id] = started->start_page;
        pages[started->id] = 0;
      } else if (coin > 0.98) {
        auto it = positions.begin();
        std::advance(it, static_cast<long>(rng.Uniform(positions.size())));
        ASSERT_TRUE(ssm.EndScan(it->first, now).ok());
        pages.erase(it->first);
        positions.erase(it);
      } else {
        auto it = positions.begin();
        std::advance(it, static_cast<long>(rng.Uniform(positions.size())));
        const uint64_t delta = rng.Uniform(3 * options.prefetch_extent_pages);
        it->second = circle.Advance(it->second, delta);
        pages[it->first] += delta;
        ASSERT_TRUE(
            ssm.UpdateLocation(it->first, it->second, pages[it->first], now)
                .ok());
        const Status scoped = ssm.CheckScanInvariants(it->first);
        ASSERT_TRUE(scoped.ok())
            << "step " << step << ": " << scoped.ToString();
      }
      const Status audit = ssm.CheckInvariants();
      ASSERT_TRUE(audit.ok()) << "step " << step << ": " << audit.ToString();
      const uint64_t now_regroups = ssm.stats().regroups;
      if (now_regroups == regroups) continue;
      regroups = now_regroups;
      std::vector<ScanPoint> points;
      points.reserve(positions.size());
      for (const auto& [id, pos] : positions) {
        points.push_back(ScanPoint{id, pos});
      }
      SCOPED_TRACE("step " + std::to_string(step));
      ExpectSameGroups(ssm.GroupsForTable(desc.table_id),
                       ReferenceScanGroups(points, circle,
                                           options.bufferpool_pages));
      if (testing::Test::HasFatalFailure()) return;
      ++checked;
    }
    EXPECT_GT(checked, 10u) << "too few full regroups to compare";
  }
}

}  // namespace
}  // namespace scanshare::ssm
