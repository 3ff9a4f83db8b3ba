// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// ScanSharingManager under concurrent scanners: parallel StartScan /
// UpdateLocation / EndScan across workers, same-scan update contention
// (the morsel-worker pattern), and scans on distinct tables. Every public
// call holds the manager's one lock, so a reader sees each table's
// grouping whole, between two calls, never mid-update. Runs under the
// TSan preset.

#include "ssm/scan_sharing_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/thread_pool.h"
#include "testutil.h"

namespace scanshare::ssm {
namespace {

constexpr sim::PageId kTableFirst = 0;
constexpr sim::PageId kTableEnd = 4096;

SsmOptions Options() {
  SsmOptions o;
  o.bufferpool_pages = 256;
  o.prefetch_extent_pages = 16;
  return o;
}

ScanDescriptor Descriptor(uint32_t table_id = 1) {
  ScanDescriptor d;
  d.table_id = table_id;
  d.table_first = kTableFirst;
  d.table_end = kTableEnd;
  d.range_first = kTableFirst;
  d.range_end = kTableEnd;
  d.estimated_pages = kTableEnd - kTableFirst;
  d.estimated_duration = sim::Seconds(10);
  return d;
}

TEST(ConcurrentSsmTest, ParallelScanLifecyclesKeepInvariants) {
  // Each worker runs several full start → update* → end lifecycles on the
  // same table; the registry and grouping must stay consistent throughout.
  constexpr size_t kWorkers = 8;
  constexpr int kLifecycles = 8;
  ScanSharingManager ssm(Options());
  testutil::ConcurrencyWitness witness;
  std::atomic<uint64_t> clock{1};

  ThreadPool workers(kWorkers);
  workers.ParallelFor(kWorkers, [&](size_t w) {
    witness.Enter();
    for (int life = 0; life < kLifecycles; ++life) {
      auto start = ssm.StartScan(Descriptor(), clock.fetch_add(1));
      ASSERT_TRUE(start.ok());
      const ScanId id = start->id;
      sim::PageId pos = start->start_page;
      for (uint64_t step = 1; step <= 16; ++step) {
        pos = kTableFirst + (pos - kTableFirst + 16) % (kTableEnd - kTableFirst);
        auto update =
            ssm.UpdateLocation(id, pos, step * 16, clock.fetch_add(1));
        ASSERT_TRUE(update.ok()) << "worker " << w;
        auto advised = ssm.AdvisePriority(id);
        ASSERT_TRUE(advised.ok());
        // Groups visible right now either contain this scan or predate
        // it, but are always internally complete.
        for (const ScanGroup& group : ssm.GroupsForTable(1)) {
          ASSERT_FALSE(group.members.empty());
          ASSERT_EQ(group.trailer, group.members.front());
          ASSERT_EQ(group.leader, group.members.back());
        }
      }
      ASSERT_TRUE(ssm.EndScan(id, clock.fetch_add(1)).ok());
    }
    witness.Exit();
  });

  EXPECT_TRUE(testutil::OverlapObservedOrSingleCoreNoted(
      "concurrent SSM lifecycles", witness.max_concurrent()));
  EXPECT_TRUE(ssm.CheckInvariants().ok());
  EXPECT_EQ(ssm.ActiveScanCount(), 0u);
  const SsmStats stats = ssm.stats();
  EXPECT_EQ(stats.scans_started, kWorkers * kLifecycles);
  EXPECT_EQ(stats.scans_ended, kWorkers * kLifecycles);
  EXPECT_EQ(stats.updates, kWorkers * kLifecycles * 16u);
}

TEST(ConcurrentSsmTest, SameScanUpdateContention) {
  // The morsel-worker pattern: one registered scan, many workers reporting
  // progress and asking for advice against the same id.
  constexpr size_t kWorkers = 8;
  constexpr uint64_t kUpdatesPerWorker = 64;
  ScanSharingManager ssm(Options());
  std::atomic<uint64_t> clock{1};
  std::atomic<uint64_t> pages{0};

  auto start = ssm.StartScan(Descriptor(), clock.fetch_add(1));
  ASSERT_TRUE(start.ok());
  const ScanId id = start->id;

  ThreadPool workers(kWorkers);
  workers.ParallelFor(kWorkers, [&](size_t w) {
    (void)w;
    for (uint64_t i = 0; i < kUpdatesPerWorker; ++i) {
      const uint64_t done = pages.fetch_add(16) + 16;
      const sim::PageId pos =
          kTableFirst + (done * 16) % (kTableEnd - kTableFirst);
      auto update = ssm.UpdateLocation(id, pos, done, clock.fetch_add(1));
      ASSERT_TRUE(update.ok());
      auto advised = ssm.AdvisePriority(id);
      ASSERT_TRUE(advised.ok());
      auto state = ssm.GetScanState(id);
      ASSERT_TRUE(state.ok());
      ASSERT_EQ(state->id, id);
    }
  });

  EXPECT_TRUE(ssm.CheckInvariants().ok());
  EXPECT_EQ(ssm.stats().updates, kWorkers * kUpdatesPerWorker);
  EXPECT_TRUE(ssm.EndScan(id, clock.fetch_add(1)).ok());
  EXPECT_EQ(ssm.ActiveScanCount(), 0u);
}

TEST(ConcurrentSsmTest, DistinctTablesProceedIndependently) {
  // Updates on different tables serialize on the manager's lock; they
  // must interleave in any order and keep per-table state separate.
  constexpr size_t kWorkers = 4;
  ScanSharingManager ssm(Options());
  std::atomic<uint64_t> clock{1};

  std::vector<ScanId> ids(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    auto start =
        ssm.StartScan(Descriptor(static_cast<uint32_t>(w + 1)), clock.fetch_add(1));
    ASSERT_TRUE(start.ok());
    ids[w] = start->id;
  }

  ThreadPool workers(kWorkers);
  workers.ParallelFor(kWorkers, [&](size_t w) {
    for (uint64_t i = 1; i <= 128; ++i) {
      const sim::PageId pos = kTableFirst + (i * 8) % (kTableEnd - kTableFirst);
      auto update = ssm.UpdateLocation(ids[w], pos, i * 8, clock.fetch_add(1));
      ASSERT_TRUE(update.ok());
    }
  });

  EXPECT_TRUE(ssm.CheckInvariants().ok());
  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(ssm.GroupsForTable(static_cast<uint32_t>(w + 1)).size(), 1u);
    EXPECT_TRUE(ssm.EndScan(ids[w], clock.fetch_add(1)).ok());
  }
  EXPECT_EQ(ssm.ActiveScanCount(), 0u);
}

}  // namespace
}  // namespace scanshare::ssm
