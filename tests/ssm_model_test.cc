// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Model-based property test for the Scan Sharing Manager. A small
// reference model replays randomized, seeded workloads (StartScan /
// UpdateLocation / EndScan schedules with per-scan speeds, staggered
// starts, early terminations, one or two tables) against the real SSM and
// checks after every operation that
//
//   - the SSM's groups equal the model's: after every rebuild, a
//     from-scratch recomputation over the model's positions by the
//     reference builder (tests/group_oracle.h, not the production kernel);
//     under adaptive_regroup, a start appends a singleton group to the
//     model's groups and an end splices the scan out of its group,
//     promotes the front and back members and recomputes the extent. And
//     independently: the groups partition the live scans, members sit in
//     circle order, the recorded extent is the trailer->leader distance,
//     and the summed extents respect the buffer-pool merge budget of
//     Fig. 14;
//   - trailers and inner members are never throttled — only a leader of a
//     group of >= 2 ever receives a wait;
//   - a wait is only inserted when the leader->trailer gap exceeds the
//     distance threshold plus one prefetch extent (the hysteresis band),
//     the reported gap matches the model's, and no single wait exceeds
//     max_wait_per_update;
//   - the fairness cap is never exceeded: accumulated wait stays within
//     fairness_cap x tolerance x estimated duration, the SSM's
//     bookkeeping matches the model's running sum, and once a scan's
//     budget is exhausted it is never throttled again (tolerance 0 scans
//     are never throttled at all);
//   - ScanSharingManager::CheckInvariants holds throughout, and the
//     scoped CheckScanInvariants holds after every update.
//
// The driver runs 64 distinct seeds (the acceptance bar is >= 50).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "group_oracle.h"
#include "ssm/group_builder.h"
#include "ssm/scan_order.h"
#include "ssm/scan_sharing_manager.h"

namespace scanshare::ssm {
namespace {

// ------------------------------------------------------------- the model

struct ModelScan {
  ScanId id = kInvalidScanId;
  uint32_t table = 0;
  sim::PageId start_page = 0;
  sim::PageId position = 0;
  uint64_t pages = 0;
  sim::Micros accumulated_wait = 0;
  bool exhausted_seen = false;
  double tolerance = 1.0;
  uint64_t estimated_pages = 0;
  sim::Micros estimated_duration = 1;
};

struct ModelTable {
  sim::PageId first = 0;
  sim::PageId end = 0;
  uint32_t updates_since_regroup = 0;
  // Snapshot taken at the last regroup: the groups and the positions they
  // were built from (positions drift afterwards when the regroup interval
  // is > 1, so ordering/extent checks must use the snapshot).
  std::vector<ScanGroup> groups;
  std::map<ScanId, sim::PageId> regroup_positions;
};

/// Replays one randomized workload against a fresh SSM, checking the
/// reference model's invariants after every operation.
class ModelDriver {
 public:
  ModelDriver(uint64_t seed, const SsmOptions& options, uint32_t num_tables)
      : rng_(seed), options_(options), ssm_(options) {
    for (uint32_t t = 0; t < num_tables; ++t) {
      ModelTable table;
      table.first = 1000u * t;  // Disjoint page ranges per table.
      table.end =
          table.first + 96 + static_cast<uint64_t>(rng_.Uniform(97));  // 96..192
      tables_.emplace(t, table);
    }
  }

  uint64_t throttle_events() const { return ssm_.stats().throttle_events; }

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      now_ += 1 + rng_.Uniform(20'000);
      const double coin = rng_.NextDouble();
      if ((scans_.size() < 6 && coin < 0.15) || scans_.empty()) {
        StartOne();
      } else if (coin > 0.97 && !scans_.empty()) {
        EndOne(PickScan());
      } else {
        UpdateOne(PickScan());
      }
      CheckAgainstSsm();
      if (testing::Test::HasFatalFailure()) return;
    }
    // Drain: every live scan ends; the SSM must come back to empty.
    while (!scans_.empty()) {
      now_ += 1 + rng_.Uniform(1'000);
      EndOne(scans_.begin()->first);
      CheckAgainstSsm();
      if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(ssm_.ActiveScanCount(), 0u);
    for (const auto& [tid, table] : tables_) {
      EXPECT_TRUE(ssm_.GroupsForTable(tid).empty());
    }
  }

 private:
  ScanId PickScan() {
    auto it = scans_.begin();
    std::advance(it, static_cast<long>(rng_.Uniform(scans_.size())));
    return it->first;
  }

  void StartOne() {
    const uint32_t tid = static_cast<uint32_t>(rng_.Uniform(tables_.size()));
    ModelTable& table = tables_.at(tid);
    ScanDescriptor desc;
    desc.table_id = tid;
    desc.table_first = table.first;
    desc.table_end = table.end;
    desc.range_first = table.first;
    desc.range_end = table.end;
    desc.estimated_pages = table.end - table.first;
    // Short durations make the fairness budget (cap x duration) small
    // enough that some scans exhaust it mid-run.
    desc.estimated_duration = 50'000 + rng_.Uniform(5'000'000);
    const double kTolerances[] = {0.0, 0.5, 1.0, 2.0};
    desc.throttle_tolerance = kTolerances[rng_.Uniform(4)];

    auto started = ssm_.StartScan(desc, now_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    ASSERT_NE(started->id, kInvalidScanId);
    ASSERT_GE(started->start_page, table.first);
    ASSERT_LT(started->start_page, table.end);
    if (started->joined_scan != kInvalidScanId) {
      // Placement may only join a live scan of the same table, starting at
      // the extent-aligned image of either that scan's current position or
      // (for a "young" candidate whose pages are plausibly still resident)
      // its own start page.
      auto joined = scans_.find(started->joined_scan);
      ASSERT_NE(joined, scans_.end());
      EXPECT_EQ(joined->second.table, tid);
      const auto align = [&](sim::PageId page) {
        sim::PageId aligned = page - page % options_.prefetch_extent_pages;
        return aligned < desc.range_first ? desc.range_first : aligned;
      };
      EXPECT_TRUE(started->start_page == align(joined->second.position) ||
                  started->start_page == align(joined->second.start_page))
          << "start " << started->start_page << " joined scan at "
          << joined->second.position << " started at "
          << joined->second.start_page;
    }

    ModelScan scan;
    scan.id = started->id;
    scan.table = tid;
    scan.start_page = started->start_page;
    scan.position = started->start_page;
    scan.tolerance = desc.throttle_tolerance;
    scan.estimated_pages = desc.estimated_pages;
    scan.estimated_duration = desc.estimated_duration;
    scans_.emplace(scan.id, scan);
    if (options_.adaptive_regroup) {
      // A singleton group at the end; no rebuild, so the update count
      // since the last one carries on.
      table.groups.push_back(ScanGroup{{scan.id}, scan.id, scan.id, 0});
      table.regroup_positions[scan.id] = scan.position;
    } else {
      RegroupModel(&table);
    }
  }

  void UpdateOne(ScanId id) {
    ModelScan& scan = scans_.at(id);
    ModelTable& table = tables_.at(scan.table);
    const ScanCircle circle(table.first, table.end);
    // Heterogeneous speeds (id-dependent stride) so leaders race ahead of
    // trailers and real gaps open up.
    const uint64_t delta =
        rng_.Uniform(options_.prefetch_extent_pages * (1 + id % 3) + 1);
    scan.position = circle.Advance(scan.position, delta);
    scan.pages += delta;
    if (++table.updates_since_regroup >= options_.regroup_interval_updates) {
      RegroupModel(&table);
    }

    auto updated = ssm_.UpdateLocation(id, scan.position, scan.pages, now_);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    const UpdateResult& r = *updated;
    const Status scoped = ssm_.CheckScanInvariants(id);
    ASSERT_TRUE(scoped.ok()) << scoped.ToString();

    // Role must agree with the model's group snapshot.
    const ScanGroup* group = nullptr;
    for (const ScanGroup& g : table.groups) {
      if (std::find(g.members.begin(), g.members.end(), id) !=
          g.members.end()) {
        group = &g;
        break;
      }
    }
    ASSERT_NE(group, nullptr);
    EXPECT_EQ(r.group_size, group->size());
    EXPECT_EQ(r.is_leader, group->leader == id);
    EXPECT_EQ(r.is_trailer, group->trailer == id);

    // Property: only the leader of a group of >= 2 is ever throttled —
    // trailers and inner members never wait.
    EXPECT_LE(r.wait, options_.max_wait_per_update);
    if (r.wait > 0) {
      EXPECT_TRUE(r.is_leader);
      EXPECT_FALSE(r.is_trailer);
      EXPECT_GE(r.group_size, 2u);
      // Property: a wait implies the gap left the hysteresis band.
      EXPECT_GT(r.gap_pages, options_.EffectiveDistanceThreshold() +
                                 options_.prefetch_extent_pages);
    }
    if (r.is_leader && r.group_size >= 2) {
      // The reported gap is the trailer->leader forward distance over the
      // model's current positions.
      EXPECT_EQ(r.gap_pages, circle.ForwardDistance(
                                 scans_.at(group->trailer).position,
                                 scan.position));
    }

    // Property: the fairness cap is never exceeded, the SSM's accumulated
    // wait matches the model's running sum, and exhaustion is permanent.
    scan.accumulated_wait += r.wait;
    auto state = ssm_.GetScanState(id);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state->accumulated_wait, scan.accumulated_wait);
    const double cap = options_.fairness_cap * scan.tolerance *
                       static_cast<double>(scan.estimated_duration);
    EXPECT_LE(static_cast<double>(scan.accumulated_wait), cap + 1e-6);
    if (scan.tolerance == 0.0) {
      EXPECT_EQ(r.wait, 0u);
    }
    if (scan.exhausted_seen) {
      EXPECT_TRUE(state->throttling_exhausted);
      EXPECT_EQ(r.wait, 0u);
    }
    if (state->throttling_exhausted) scan.exhausted_seen = true;
  }

  void EndOne(ScanId id) {
    const uint32_t tid = scans_.at(id).table;
    const Status ended = ssm_.EndScan(id, now_);
    ASSERT_TRUE(ended.ok()) << ended.ToString();
    scans_.erase(id);
    ModelTable& table = tables_.at(tid);
    if (options_.adaptive_regroup) {
      SpliceOut(&table, id);
    } else {
      RegroupModel(&table);
    }
  }

  /// An adaptive end: the scan leaves its group, the group keeps the order
  /// of the rest (or vanishes), and its ends and extent follow the
  /// surviving members' current positions.
  void SpliceOut(ModelTable* table, ScanId id) {
    table->regroup_positions.erase(id);
    for (auto g = table->groups.begin(); g != table->groups.end(); ++g) {
      auto member = std::find(g->members.begin(), g->members.end(), id);
      if (member == g->members.end()) continue;
      g->members.erase(member);
      if (g->members.empty()) {
        table->groups.erase(g);
        return;
      }
      g->trailer = g->members.front();
      g->leader = g->members.back();
      g->extent_pages = ScanCircle(table->first, table->end)
                            .ForwardDistance(scans_.at(g->trailer).position,
                                             scans_.at(g->leader).position);
      return;
    }
    FAIL() << "scan " << id << " is in no model group";
  }

  void RegroupModel(ModelTable* table) {
    table->updates_since_regroup = 0;
    table->regroup_positions.clear();
    std::vector<ScanPoint> points;
    for (const auto& [id, scan] : scans_) {
      if (&tables_.at(scan.table) != table) continue;
      points.push_back(ScanPoint{id, scan.position});
      table->regroup_positions[id] = scan.position;
    }
    table->groups = testutil::ReferenceScanGroups(
        points, ScanCircle(table->first, table->end),
        options_.bufferpool_pages);
  }

  void CheckAgainstSsm() {
    const Status audit = ssm_.CheckInvariants();
    ASSERT_TRUE(audit.ok()) << audit.ToString();
    ASSERT_EQ(ssm_.ActiveScanCount(), scans_.size());

    for (const auto& [tid, table] : tables_) {
      const std::vector<ScanGroup> actual = ssm_.GroupsForTable(tid);

      // The SSM's live groups equal a from-scratch recomputation.
      ASSERT_EQ(actual.size(), table.groups.size()) << "table " << tid;
      for (size_t g = 0; g < actual.size(); ++g) {
        EXPECT_EQ(actual[g].members, table.groups[g].members);
        EXPECT_EQ(actual[g].trailer, table.groups[g].trailer);
        EXPECT_EQ(actual[g].leader, table.groups[g].leader);
        EXPECT_EQ(actual[g].extent_pages, table.groups[g].extent_pages);
      }

      // Independent structural properties (not via any group builder).
      const ScanCircle circle(table.first, table.end);
      std::set<ScanId> seen;
      uint64_t extent_sum = 0;
      for (const ScanGroup& g : actual) {
        ASSERT_FALSE(g.members.empty());
        EXPECT_EQ(g.trailer, g.members.front());
        EXPECT_EQ(g.leader, g.members.back());
        for (ScanId member : g.members) {
          EXPECT_TRUE(seen.insert(member).second)
              << "scan " << member << " in two groups";
        }
        // Members sit in circle order from the trailer, and the extent is
        // the trailer->leader distance — both over the snapshot positions
        // the groups were built from.
        uint64_t prev = 0;
        for (ScanId member : g.members) {
          const sim::PageId pos = table.regroup_positions.at(member);
          const uint64_t dist = circle.ForwardDistance(
              table.regroup_positions.at(g.trailer), pos);
          EXPECT_GE(dist, prev) << "member " << member << " out of order";
          prev = dist;
        }
        EXPECT_EQ(g.extent_pages,
                  circle.ForwardDistance(table.regroup_positions.at(g.trailer),
                                         table.regroup_positions.at(g.leader)));
        extent_sum += g.extent_pages;
      }
      // Groups partition the table's live scans...
      size_t live_on_table = 0;
      for (const auto& [id, scan] : scans_) {
        if (scan.table == tid) {
          ++live_on_table;
          EXPECT_TRUE(seen.count(id)) << "scan " << id << " ungrouped";
        }
      }
      EXPECT_EQ(seen.size(), live_on_table);
      // ...and the Fig.-14 merge budget bounds the summed extents.
      EXPECT_LE(extent_sum, options_.bufferpool_pages);
    }
  }

  Rng rng_;
  SsmOptions options_;
  ScanSharingManager ssm_;
  sim::Micros now_ = 0;
  std::map<ScanId, ModelScan> scans_;
  std::map<uint32_t, ModelTable> tables_;
};

// ------------------------------------------------------------------ tests

TEST(SsmModelTest, RandomizedWorkloadsMatchReferenceModel) {
  constexpr int kSeeds = 64;  // Acceptance bar: >= 50 distinct seeds.
  uint64_t total_throttle_events = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng knobs(0xC0FFEE00u + static_cast<uint64_t>(seed));
    SsmOptions options;
    const uint64_t kPools[] = {32, 64, 96, 1024};
    options.bufferpool_pages = kPools[knobs.Uniform(4)];
    options.prefetch_extent_pages = 8;
    // Mix of the default threshold rule and explicit overrides.
    options.distance_threshold_pages = knobs.Bernoulli(0.5) ? 0 : 4 + knobs.Uniform(12);
    options.fairness_cap = knobs.Bernoulli(0.5) ? 0.8 : 0.4;
    options.regroup_interval_updates = knobs.Bernoulli(0.8) ? 1 : 3;
    const uint32_t num_tables = 1 + static_cast<uint32_t>(knobs.Uniform(2));
    // Incremental starts and ends, on seeds that rebuild on every update:
    // with at most six scans the adaptive interval stays 1, so every
    // update still gets its from-scratch check, and positions never drift
    // from the ones the groups were built from — which keeps a splice's
    // recomputed extent within the order, extent and budget checks.
    options.adaptive_regroup =
        knobs.Bernoulli(0.5) && options.regroup_interval_updates == 1;

    ModelDriver driver(0xABCD'1234'0000'0000ull + static_cast<uint64_t>(seed),
                       options, num_tables);
    driver.Run(/*steps=*/220);
    total_throttle_events += driver.throttle_events();
    if (testing::Test::HasFatalFailure()) return;
  }
  // The sweep must actually exercise throttling, not just quiet groups.
  EXPECT_GT(total_throttle_events, 0u);
}

// A directed two-scan scenario: a fast leader pulls away from a slow
// trailer until it is throttled, and — because the leader's estimated
// duration is short — eventually exhausts its fairness budget and runs
// free. Pins down wait accounting end to end without randomness.
TEST(SsmModelTest, DirectedLeaderExhaustsFairnessBudget) {
  SsmOptions options;
  options.bufferpool_pages = 1024;
  options.prefetch_extent_pages = 8;  // Threshold defaults to 16 pages.
  auto ssm = ScanSharingManager(options);

  ScanDescriptor desc;
  desc.table_id = 0;
  desc.table_first = 0;
  desc.table_end = 4096;
  desc.range_first = 0;
  desc.range_end = 4096;
  desc.estimated_pages = 4096;
  desc.estimated_duration = 1'000'000;  // Budget: 0.8 s of throttling.

  sim::Micros now = 0;
  auto leader = ssm.StartScan(desc, now);
  ASSERT_TRUE(leader.ok());
  auto trailer = ssm.StartScan(desc, now);
  ASSERT_TRUE(trailer.ok());
  EXPECT_EQ(trailer->joined_scan, leader->id);  // Smart placement joined.

  const ScanCircle circle(0, 4096);
  sim::PageId leader_pos = leader->start_page;
  sim::PageId trailer_pos = trailer->start_page;
  uint64_t leader_pages = 0, trailer_pages = 0;
  sim::Micros leader_waits = 0;
  uint64_t throttled_updates = 0;
  bool exhausted = false;

  for (int tick = 0; tick < 400; ++tick) {
    now += 10'000;
    // Trailer: 1 page / 10 ms = 100 pps. Leader: 4x faster.
    trailer_pos = circle.Advance(trailer_pos, 1);
    trailer_pages += 1;
    auto tr = ssm.UpdateLocation(trailer->id, trailer_pos, trailer_pages, now);
    ASSERT_TRUE(tr.ok());
    EXPECT_EQ(tr->wait, 0u) << "trailer throttled at tick " << tick;

    leader_pos = circle.Advance(leader_pos, 4);
    leader_pages += 4;
    auto le = ssm.UpdateLocation(leader->id, leader_pos, leader_pages, now);
    ASSERT_TRUE(le.ok());
    if (le->wait > 0) {
      ++throttled_updates;
      leader_waits += le->wait;
      EXPECT_TRUE(le->is_leader);
      EXPECT_GT(le->gap_pages, options.EffectiveDistanceThreshold() +
                                   options.prefetch_extent_pages);
    }
    auto state = ssm.GetScanState(leader->id);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state->accumulated_wait, leader_waits);
    if (exhausted) {
      EXPECT_EQ(le->wait, 0u);
    }
    exhausted = state->throttling_exhausted;
    ASSERT_TRUE(ssm.CheckInvariants().ok());
  }

  // The scenario must have gone through all three phases: free running,
  // throttled, budget exhausted.
  EXPECT_GT(throttled_updates, 0u);
  EXPECT_TRUE(exhausted);
  const double cap = options.fairness_cap * static_cast<double>(desc.estimated_duration);
  EXPECT_LE(static_cast<double>(leader_waits), cap + 1e-6);
  EXPECT_GT(static_cast<double>(leader_waits), 0.9 * cap);  // Budget was used.

  ASSERT_TRUE(ssm.EndScan(leader->id, now).ok());
  ASSERT_TRUE(ssm.EndScan(trailer->id, now).ok());
  EXPECT_EQ(ssm.ActiveScanCount(), 0u);
}

}  // namespace
}  // namespace scanshare::ssm
