// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Seeded randomized stress for the correctness-audit subsystem: drives the
// buffer pool and the Scan Sharing Manager through thousands of random
// operations *with disk fault injection armed*, calling the full
// CheckInvariants() audits after every step. This is the harness that makes the error paths ordinary instead
// of exceptional: injected device faults and mid-extent media faults fire
// throughout, and every structure must stay consistent after each one.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/replacer.h"
#include "common/random.h"
#include "exec/engine.h"
#include "ssm/scan_sharing_manager.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare {
namespace {

using buffer::BufferPool;
using buffer::BufferPoolOptions;
using buffer::BufferPoolStats;
using buffer::PagePriority;

struct PoolStressParam {
  bool priority_policy;
  uint64_t seed;
};

class PoolFaultStressTest : public ::testing::TestWithParam<PoolStressParam> {};

TEST_P(PoolFaultStressTest, RandomOpsUnderFaultsPreserveInvariants) {
  const PoolStressParam param = GetParam();

  sim::Env env;
  storage::DiskManager dm(&env, 4096);
  const uint64_t disk_pages = 256;
  ASSERT_TRUE(dm.AllocateContiguous(disk_pages).ok());
  for (sim::PageId p = 0; p < disk_pages; ++p) {
    auto data = dm.MutablePageData(p);
    (*data)[0] = static_cast<uint8_t>(p & 0xff);
    (*data)[1] = static_cast<uint8_t>(p >> 8);
  }

  BufferPoolOptions options;
  options.num_frames = 24;
  options.prefetch_extent_pages = 4;
  std::unique_ptr<buffer::ReplacementPolicy> policy;
  if (param.priority_policy) {
    policy = std::make_unique<buffer::PriorityLruReplacer>(options.num_frames);
  } else {
    policy = std::make_unique<buffer::LruReplacer>(options.num_frames);
  }
  BufferPool pool(&dm, std::move(policy), options);

  Rng rng(param.seed);
  std::map<sim::PageId, uint32_t> pins;  // Our model of outstanding pins.
  sim::Micros now = 0;
  uint64_t fetches = 0;
  uint64_t fetch_failures = 0;

  for (int step = 0; step < 8000; ++step) {
    now += rng.Uniform(50);

    // Occasionally rotate the fault configuration, so stretches of clean
    // operation alternate with device faults and media faults.
    if (rng.Bernoulli(0.01)) {
      const int mode = static_cast<int>(rng.Uniform(4));
      env.disk().ClearFaults();
      dm.ClearPageDataFaults();
      if (mode == 1) {
        sim::DiskFaultOptions faults;
        faults.fail_rate = 0.2;
        faults.seed = rng.Uniform(1 << 20);
        env.disk().SetFaults(faults);
      } else if (mode == 2) {
        const sim::PageId first = rng.Uniform(disk_pages - 8);
        dm.SetPageDataFaultRange(first, first + 1 + rng.Uniform(8));
      } else if (mode == 3) {
        sim::DiskFaultOptions faults;
        faults.fail_nth_read = 1 + rng.Uniform(4);
        env.disk().SetFaults(faults);
      }
    }

    const int op = static_cast<int>(rng.Uniform(100));
    if (op < 55) {
      const sim::PageId page = rng.Bernoulli(0.7)
                                   ? rng.Uniform(64)
                                   : rng.Uniform(disk_pages);
      auto r = pool.FetchPage(page, now);
      if (!r.ok()) {
        // The only legal failures: pool fully pinned, or an injected
        // device/media fault.
        ASSERT_TRUE(r.status().code() == Status::Code::kResourceExhausted ||
                    r.status().code() == Status::Code::kCorruption)
            << r.status().ToString();
        ++fetch_failures;
      } else {
        ++fetches;
        ASSERT_EQ(r->data[0], static_cast<uint8_t>(page & 0xff));
        ASSERT_EQ(r->data[1], static_cast<uint8_t>(page >> 8));
        ++pins[page];
      }
    } else if (op < 95) {
      if (pins.empty()) continue;
      auto it = pins.begin();
      std::advance(it, rng.Uniform(pins.size()));
      const sim::PageId page = it->first;
      const auto prio = static_cast<PagePriority>(rng.Uniform(3));
      ASSERT_TRUE(pool.UnpinPage(page, prio).ok());
      if (--it->second == 0) pins.erase(it);
    } else {
      Status st = pool.FlushAll();
      if (pins.empty()) {
        ASSERT_TRUE(st.ok());
      } else {
        ASSERT_EQ(st.code(), Status::Code::kFailedPrecondition);
      }
    }

    // The full structural audit, every step — faulted or not.
    Status audit = pool.CheckInvariants();
    ASSERT_TRUE(audit.ok()) << "step " << step << ": " << audit.ToString();

    for (const auto& [page, count] : pins) {
      ASSERT_TRUE(pool.Contains(page)) << "pinned page evicted";
      auto pc = pool.PinCount(page);
      ASSERT_TRUE(pc.ok());
      ASSERT_EQ(*pc, count);
    }
    const BufferPoolStats& stats = pool.stats();
    ASSERT_EQ(stats.hits + stats.misses, stats.logical_reads);
    ASSERT_GE(stats.physical_pages, stats.misses);
  }

  // The stress must actually have exercised both the happy and the faulted
  // paths.
  EXPECT_GT(fetches, 2000u);
  EXPECT_GT(fetch_failures, 50u);
  EXPECT_GT(env.disk().faults_injected() + dm.page_data_faults_injected(), 20u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, PoolFaultStressTest,
    ::testing::Values(PoolStressParam{false, 11}, PoolStressParam{true, 12},
                      PoolStressParam{false, 13}, PoolStressParam{true, 14}),
    [](const auto& tpi) {
      std::string name = tpi.param.priority_policy ? "PriorityLru" : "Lru";
      name += std::to_string(tpi.param.seed);
      return name;
    });

// Randomized SSM lifecycle stress: scans start, report progress (sometimes
// at repeated timestamps, sometimes jumping on the circle), and end in
// random order across two tables, with the full audit after every call.
TEST(SsmAuditStressTest, RandomLifecyclePreservesInvariants) {
  ssm::SsmOptions options;
  options.bufferpool_pages = 96;
  options.prefetch_extent_pages = 8;
  ssm::ScanSharingManager ssm(options);

  struct Live {
    ssm::ScanId id;
    uint32_t table;
    uint64_t pages = 0;
  };
  const uint64_t table_pages[2] = {512, 320};

  Rng rng(99);
  std::vector<Live> live;
  sim::Micros now = 0;
  uint64_t started = 0;

  for (int step = 0; step < 3000; ++step) {
    if (rng.Bernoulli(0.7)) now += rng.Uniform(2000);  // else: zero-dt step.
    const int op = static_cast<int>(rng.Uniform(100));

    if (op < 15 && live.size() < 12) {
      const uint32_t table = static_cast<uint32_t>(rng.Uniform(2));
      ssm::ScanDescriptor d;
      d.table_id = table;
      d.table_first = 0;
      d.table_end = table_pages[table];
      d.range_first = 0;
      d.range_end = table_pages[table];
      d.estimated_pages = table_pages[table];
      d.estimated_duration = sim::Seconds(1 + rng.Uniform(10));
      d.throttle_tolerance = rng.Bernoulli(0.2) ? 0.0 : 1.0;
      auto start = ssm.StartScan(d, now);
      ASSERT_TRUE(start.ok());
      live.push_back(Live{start->id, table, 0});
      ++started;
    } else if (op < 85 && !live.empty()) {
      Live& scan = live[rng.Uniform(live.size())];
      scan.pages += rng.Uniform(32);
      const sim::PageId pos = rng.Uniform(table_pages[scan.table]);
      auto update = ssm.UpdateLocation(scan.id, pos, scan.pages, now);
      ASSERT_TRUE(update.ok());
      auto prio = ssm.AdvisePriority(scan.id);
      ASSERT_TRUE(prio.ok());
    } else if (!live.empty()) {
      const size_t victim = rng.Uniform(live.size());
      ASSERT_TRUE(ssm.EndScan(live[victim].id, now).ok());
      live.erase(live.begin() + static_cast<long>(victim));
    }

    Status audit = ssm.CheckInvariants();
    ASSERT_TRUE(audit.ok()) << "step " << step << ": " << audit.ToString();
  }
  EXPECT_GT(started, 100u);

  while (!live.empty()) {
    ASSERT_TRUE(ssm.EndScan(live.back().id, now).ok());
    live.pop_back();
    ASSERT_TRUE(ssm.CheckInvariants().ok());
  }
  EXPECT_EQ(ssm.ActiveScanCount(), 0u);
}

// Executor-level fault recovery: a full engine run whose disk fails midway
// must surface the Corruption to the caller, and — because every run gets
// a fresh pool over immutable storage — a clean rerun on the same database
// must produce exactly the results of a never-faulted run.
class ExecutorFaultTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kTablePages = 128;

  static exec::Database* db() {
    return testutil::SharedLineitemDb(kTablePages, 2024);
  }

  static exec::RunConfig Config(exec::ScanMode mode) {
    exec::RunConfig c;
    c.mode = mode;
    c.buffer.num_frames = db()->FramesForFraction(0.1);
    c.buffer.prefetch_extent_pages = 16;
    return c;
  }
};

TEST_F(ExecutorFaultTest, InjectedFaultFailsRunAndCleanRerunIsPristine) {
  const auto streams = workload::MakeStaggeredStreams(
      workload::MakeQ6Like("lineitem"), 2, sim::Millis(200));

  for (const exec::ScanMode mode :
       {exec::ScanMode::kBaseline, exec::ScanMode::kShared}) {
    const exec::RunConfig config = Config(mode);

    // Reference: an untainted run.
    auto reference = db()->Run(config, streams);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    // Fault the 5th disk request of the run. Database::Run resets the
    // disk at start, which re-arms (not clears) the injection.
    sim::DiskFaultOptions faults;
    faults.fail_nth_read = 5;
    db()->env()->disk().SetFaults(faults);
    auto faulted = db()->Run(config, streams);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), Status::Code::kCorruption)
        << faulted.status().ToString();

    // Clean rerun: bit-identical to the reference — the failed run left
    // nothing behind.
    db()->env()->disk().ClearFaults();
    auto rerun = db()->Run(config, streams);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->buffer.logical_reads, reference->buffer.logical_reads);
    EXPECT_EQ(rerun->buffer.hits, reference->buffer.hits);
    EXPECT_EQ(rerun->buffer.misses, reference->buffer.misses);
    EXPECT_EQ(rerun->buffer.physical_pages,
              reference->buffer.physical_pages);
    EXPECT_EQ(rerun->buffer.evictions, reference->buffer.evictions);
    EXPECT_EQ(rerun->disk.requests, reference->disk.requests);
    EXPECT_EQ(rerun->disk.pages_read, reference->disk.pages_read);
    EXPECT_EQ(rerun->disk.seeks, reference->disk.seeks);
    EXPECT_EQ(rerun->disk.busy_micros, reference->disk.busy_micros);
    EXPECT_EQ(rerun->makespan, reference->makespan);
  }
}

// A mid-extent media fault (PageData corruption) also fails the run
// cleanly; clearing it restores pristine behaviour.
TEST_F(ExecutorFaultTest, MediaFaultFailsRunAndCleanRerunIsPristine) {
  const auto streams = workload::MakeStaggeredStreams(
      workload::MakeQ6Like("lineitem"), 2, sim::Millis(200));
  const exec::RunConfig config = Config(exec::ScanMode::kShared);

  auto reference = db()->Run(config, streams);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Fault a few page images somewhere inside the table.
  db()->disk_manager()->SetPageDataFaultRange(40, 43);
  auto faulted = db()->Run(config, streams);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), Status::Code::kCorruption);

  db()->disk_manager()->ClearPageDataFaults();
  auto rerun = db()->Run(config, streams);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->buffer.misses, reference->buffer.misses);
  EXPECT_EQ(rerun->disk.pages_read, reference->disk.pages_read);
  EXPECT_EQ(rerun->makespan, reference->makespan);
}

}  // namespace
}  // namespace scanshare
