#include "ssm/group_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/random.h"

namespace scanshare::ssm {
namespace {

std::vector<ScanPoint> Points(std::initializer_list<std::pair<ScanId, sim::PageId>> ps) {
  std::vector<ScanPoint> out;
  for (const auto& [id, pos] : ps) out.push_back(ScanPoint{id, pos});
  return out;
}

const ScanGroup* GroupOf(const std::vector<ScanGroup>& groups, ScanId id) {
  for (const ScanGroup& g : groups) {
    if (std::find(g.members.begin(), g.members.end(), id) != g.members.end()) {
      return &g;
    }
  }
  return nullptr;
}

TEST(GroupBuilderTest, EmptyInput) {
  ScanCircle c(0, 100);
  EXPECT_TRUE(BuildScanGroups({}, c, 50).empty());
}

TEST(GroupBuilderTest, SingleScanIsSingletonGroup) {
  ScanCircle c(0, 100);
  auto groups = BuildScanGroups(Points({{1, 42}}), c, 50);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].leader, 1u);
  EXPECT_EQ(groups[0].trailer, 1u);
  EXPECT_EQ(groups[0].extent_pages, 0u);
}

// The paper's running example (Fig. 6 / §7.2): distances d(A,B)=40,
// d(B,C)=10, d(C,D)=15, d(E,F)=20 with buffer pool 50 must yield groups
// (A), (B,C,D), (E,F) with total extent 45 < 50.
TEST(GroupBuilderTest, PaperFig6Example) {
  // Table big enough that wrap gaps are never attractive. Positions:
  // A=0, B=40, C=50, D=65 on one table; E=0, F=20 on another circle.
  ScanCircle c1(0, 10000);
  auto g1 = BuildScanGroups(Points({{1, 0}, {2, 40}, {3, 50}, {4, 65}}), c1, 50);
  ScanCircle c2(0, 10000);
  auto g2 = BuildScanGroups(Points({{5, 0}, {6, 20}}), c2, 50 - 25);

  const ScanGroup* a = GroupOf(g1, 1);
  const ScanGroup* bcd = GroupOf(g1, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(bcd, nullptr);
  EXPECT_EQ(a->size(), 1u);  // A alone: d(A,B)=40 busts the budget.
  EXPECT_EQ(bcd->size(), 3u);
  EXPECT_EQ(bcd->trailer, 2u);  // B
  EXPECT_EQ(bcd->leader, 4u);   // D
  EXPECT_EQ(bcd->extent_pages, 25u);
  EXPECT_EQ(GroupOf(g1, 3), bcd);

  const ScanGroup* ef = GroupOf(g2, 5);
  ASSERT_NE(ef, nullptr);
  EXPECT_EQ(ef->size(), 2u);
  EXPECT_EQ(ef->trailer, 5u);  // E
  EXPECT_EQ(ef->leader, 6u);   // F
  EXPECT_EQ(ef->extent_pages, 20u);
}

TEST(GroupBuilderTest, AllMergeUnderLargeBudget) {
  ScanCircle c(0, 1000);
  auto groups = BuildScanGroups(Points({{1, 10}, {2, 20}, {3, 40}}), c, 1000);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 3u);
  EXPECT_EQ(groups[0].trailer, 1u);
  EXPECT_EQ(groups[0].leader, 3u);
  EXPECT_EQ(groups[0].extent_pages, 30u);
  // Members ordered back-to-front.
  EXPECT_EQ(groups[0].members, (std::vector<ScanId>{1, 2, 3}));
}

TEST(GroupBuilderTest, ZeroBudgetKeepsCoLocatedScansTogether) {
  ScanCircle c(0, 1000);
  // Distance-0 pairs cost nothing and always merge (they share perfectly).
  auto groups = BuildScanGroups(Points({{1, 10}, {2, 10}, {3, 500}}), c, 0);
  const ScanGroup* pair = GroupOf(groups, 1);
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->size(), 2u);
  EXPECT_EQ(pair->extent_pages, 0u);
  EXPECT_EQ(GroupOf(groups, 3)->size(), 1u);
}

TEST(GroupBuilderTest, WrapAroundGapMerges) {
  ScanCircle c(0, 100);
  // 95 -> 5 is only 10 pages apart across the wrap.
  auto groups = BuildScanGroups(Points({{1, 95}, {2, 5}}), c, 20);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 2u);
  EXPECT_EQ(groups[0].trailer, 1u);  // 95 trails; 5 is ahead across the wrap.
  EXPECT_EQ(groups[0].leader, 2u);
  EXPECT_EQ(groups[0].extent_pages, 10u);
}

TEST(GroupBuilderTest, NeverClosesFullCircle) {
  ScanCircle c(0, 40);
  // Four scans evenly spaced; budget big enough for all gaps. Merging all
  // four gaps would close the circle; exactly one must stay open.
  auto groups = BuildScanGroups(Points({{1, 0}, {2, 10}, {3, 20}, {4, 30}}), c, 1000);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 4u);
  EXPECT_EQ(groups[0].extent_pages, 30u);  // 3 gaps of 10, not 4.
  EXPECT_NE(groups[0].leader, groups[0].trailer);
}

TEST(GroupBuilderTest, SmallestGapsWinTheBudget) {
  ScanCircle c(0, 10000);
  // Gaps: 1-2: 5, 2-3: 50, 3-4: 6. Budget 12 fits only {5, 6}.
  auto groups =
      BuildScanGroups(Points({{1, 100}, {2, 105}, {3, 155}, {4, 161}}), c, 12);
  EXPECT_EQ(GroupOf(groups, 1)->size(), 2u);
  EXPECT_EQ(GroupOf(groups, 3)->size(), 2u);
  EXPECT_NE(GroupOf(groups, 1), GroupOf(groups, 3));
}

TEST(GroupBuilderTest, EveryScanInExactlyOneGroup) {
  ScanCircle c(0, 500);
  auto points = Points({{1, 3}, {2, 77}, {3, 205}, {4, 206}, {5, 471}, {6, 208}});
  auto groups = BuildScanGroups(points, c, 64);
  std::multiset<ScanId> seen;
  for (const ScanGroup& g : groups) {
    EXPECT_FALSE(g.members.empty());
    EXPECT_EQ(g.members.front(), g.trailer);
    EXPECT_EQ(g.members.back(), g.leader);
    for (ScanId m : g.members) seen.insert(m);
  }
  EXPECT_EQ(seen.size(), points.size());
  for (const ScanPoint& p : points) EXPECT_EQ(seen.count(p.id), 1u);
}

TEST(GroupBuilderTest, GroupExtentMatchesTrailerToLeaderDistance) {
  ScanCircle c(0, 500);
  auto groups = BuildScanGroups(
      Points({{1, 3}, {2, 77}, {3, 205}, {4, 206}, {5, 471}, {6, 208}}), c, 64);
  for (const ScanGroup& g : groups) {
    // Reconstruct positions.
    auto pos = [&](ScanId id) -> sim::PageId {
      switch (id) {
        case 1: return 3;
        case 2: return 77;
        case 3: return 205;
        case 4: return 206;
        case 5: return 471;
        default: return 208;
      }
    };
    EXPECT_EQ(g.extent_pages, c.ForwardDistance(pos(g.trailer), pos(g.leader)));
  }
}

TEST(GroupBuilderTest, DeterministicAcrossShuffledInput) {
  ScanCircle c(0, 500);
  auto a = BuildScanGroups(
      Points({{1, 3}, {2, 77}, {3, 205}, {4, 206}, {5, 471}}), c, 64);
  auto b = BuildScanGroups(
      Points({{5, 471}, {3, 205}, {1, 3}, {4, 206}, {2, 77}}), c, 64);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].members, b[i].members);
    EXPECT_EQ(a[i].leader, b[i].leader);
    EXPECT_EQ(a[i].trailer, b[i].trailer);
  }
}

TEST(GroupBuilderTest, BudgetBoundProperty) {
  // Under any budget, the sum of group extents never exceeds it... except
  // for the free (distance-0) merges which cost nothing.
  ScanCircle c(0, 1 << 16);
  for (uint64_t budget : {0ull, 10ull, 100ull, 1000ull, 100000ull}) {
    auto groups = BuildScanGroups(
        Points({{1, 10}, {2, 1000}, {3, 1010}, {4, 5000}, {5, 5002}, {6, 40000}}),
        c, budget);
    uint64_t total = 0;
    for (const ScanGroup& g : groups) total += g.extent_pages;
    EXPECT_LE(total, budget) << "budget " << budget;
  }
}

// ------------------------------------------------- GroupIndex::Add

TEST(GroupIndexAddTest, GrowsAcrossDoublingsFromEmpty) {
  // From an empty index through eight doublings (2 .. 512 slots); every
  // id added so far keeps its group after each growth.
  GroupIndex index;
  for (ScanId id = 1; id <= 200; ++id) {
    index.Add(id, static_cast<size_t>(id % 7));
    ASSERT_EQ(index.size(), id);
    for (ScanId seen = 1; seen <= id; ++seen) {
      ASSERT_EQ(index.Find(seen), static_cast<size_t>(seen % 7))
          << "scan " << seen << " after adding " << id;
    }
  }
  EXPECT_EQ(index.Find(201), GroupIndex::kNotFound);
}

TEST(GroupIndexAddTest, AddsAfterAssign) {
  std::vector<ScanGroup> groups(2);
  groups[0].members = {10, 11, 12};
  groups[1].members = {20};
  GroupIndex index;
  index.Assign(groups);
  // Appending singleton groups 2, 3, ... as an adaptive start does, past
  // the capacity Assign chose.
  for (ScanId id = 30; id < 60; ++id) {
    index.Add(id, static_cast<size_t>(id - 28));
  }
  EXPECT_EQ(index.size(), 34u);
  EXPECT_EQ(index.Find(10), 0u);
  EXPECT_EQ(index.Find(11), 0u);
  EXPECT_EQ(index.Find(12), 0u);
  EXPECT_EQ(index.Find(20), 1u);
  for (ScanId id = 30; id < 60; ++id) {
    EXPECT_EQ(index.Find(id), static_cast<size_t>(id - 28));
  }
  // Assign starts over, whatever Add left behind.
  index.Assign(groups);
  EXPECT_EQ(index.size(), 4u);
  EXPECT_EQ(index.Find(30), GroupIndex::kNotFound);
  EXPECT_EQ(index.Find(20), 1u);
}

TEST(GroupIndexAddTest, IdAddedTwiceMapsToTheLaterGroup) {
  GroupIndex index;
  index.Add(7, 0);
  index.Add(8, 1);
  index.Add(7, 4);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.Find(7), 4u);
  EXPECT_EQ(index.Find(8), 1u);

  // The same rule as Assign's for a scan listed in two groups.
  std::vector<ScanGroup> groups(5);
  groups[0].members = {7};
  groups[1].members = {8};
  groups[4].members = {7};
  GroupIndex assigned;
  assigned.Assign(groups);
  EXPECT_EQ(assigned.size(), index.size());
  EXPECT_EQ(assigned.Find(7), index.Find(7));
}

TEST(GroupIndexAddTest, FindMissesInvalidAndAbsentIds) {
  GroupIndex index;
  EXPECT_EQ(index.Find(kInvalidScanId), GroupIndex::kNotFound);
  EXPECT_EQ(index.Find(1), GroupIndex::kNotFound);
  for (ScanId id = 1; id <= 40; id += 3) index.Add(id, 0);
  EXPECT_EQ(index.Find(kInvalidScanId), GroupIndex::kNotFound);
  for (ScanId id = 2; id <= 40; id += 3) {
    EXPECT_EQ(index.Find(id), GroupIndex::kNotFound) << "scan " << id;
  }
  EXPECT_EQ(index.Find(1'000'000), GroupIndex::kNotFound);
}

// ---------------------------------------------- GroupIndex::Remove

// The first `n` ids whose home is `slot` in an 8-slot table. This repeats
// GroupIndex's Fibonacci hash so that a test can lay out a probe run that
// wraps past the last slot.
std::vector<ScanId> IdsHomingOnSlotOfEight(size_t slot, size_t n) {
  std::vector<ScanId> ids;
  for (ScanId id = 1; ids.size() < n; ++id) {
    if (((id * 0x9E3779B97F4A7C15ull) >> 61) == slot) ids.push_back(id);
  }
  return ids;
}

TEST(GroupIndexRemoveTest, BackwardShiftRepairsAProbeRunThatWraps) {
  // Four entries keep the table at eight slots. Three ids home on slot 7
  // and one on slot 1, so the run fills slots 7, 0, 1 and 2: it wraps, and
  // every entry after the first sits past its home. Removing any one must
  // leave every other findable, which takes comparing homes cyclically:
  // an entry homed on slot 7 sitting in slot 1 may fill a hole in slot 0.
  std::vector<ScanId> ids = IdsHomingOnSlotOfEight(7, 3);
  ids.push_back(IdsHomingOnSlotOfEight(1, 1)[0]);
  for (size_t victim = 0; victim < ids.size(); ++victim) {
    GroupIndex index;
    for (size_t i = 0; i < ids.size(); ++i) index.Add(ids[i], i);
    index.Remove(ids[victim]);
    EXPECT_EQ(index.size(), ids.size() - 1);
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(index.Find(ids[i]), i == victim ? GroupIndex::kNotFound : i)
          << "removed scan " << ids[victim] << ", looked up scan " << ids[i];
    }
    index.Add(ids[victim], 9);  // The freed slot takes an entry again.
    EXPECT_EQ(index.Find(ids[victim]), 9u);
    EXPECT_EQ(index.size(), ids.size());
  }
}

TEST(GroupIndexRemoveTest, RemovingAnAbsentIdIsANoOp) {
  GroupIndex index;
  index.Remove(5);
  index.Remove(kInvalidScanId);
  EXPECT_EQ(index.size(), 0u);
  index.Add(5, 2);
  index.Remove(6);
  index.Remove(kInvalidScanId);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Find(5), 2u);
  index.Remove(5);
  index.Remove(5);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(5), GroupIndex::kNotFound);
}

TEST(GroupIndexRemoveTest, MatchesAHashMapUnderRandomAddRemoveFind) {
  // A small id universe keeps the table small and its probe runs long, so
  // runs wrap past the last slot often.
  constexpr ScanId kIds = 40;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    GroupIndex index;
    std::unordered_map<ScanId, size_t> model;
    for (int op = 0; op < 3'000; ++op) {
      const ScanId id = 1 + rng.Uniform(kIds);
      switch (rng.Uniform(3)) {
        case 0: {
          const size_t group = rng.Uniform(16);
          index.Add(id, group);
          model[id] = group;
          break;
        }
        case 1:
          index.Remove(id);
          model.erase(id);
          break;
        default: {
          const auto it = model.find(id);
          ASSERT_EQ(index.Find(id),
                    it == model.end() ? GroupIndex::kNotFound : it->second)
              << "seed " << seed << ", op " << op << ", scan " << id;
        }
      }
      ASSERT_EQ(index.size(), model.size()) << "seed " << seed << ", op " << op;
    }
    for (ScanId id = 1; id <= kIds; ++id) {
      const auto it = model.find(id);
      EXPECT_EQ(index.Find(id),
                it == model.end() ? GroupIndex::kNotFound : it->second)
          << "seed " << seed << ", scan " << id;
    }
  }
}

}  // namespace
}  // namespace scanshare::ssm
