#include "exec/engine.h"

#include <gtest/gtest.h>

#include "metrics/report.h"
#include "testutil.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace scanshare::exec {
namespace {

TEST(DatabaseTest, FramesForFractionUsesLoadedPages) {
  Database db;
  auto info = workload::GenerateLineitem(db.catalog(), "lineitem",
                                         workload::LineitemRowsForPages(200), 1);
  ASSERT_TRUE(info.ok());
  const uint64_t total = db.catalog()->TotalTablePages();
  EXPECT_EQ(db.FramesForFraction(0.05),
            std::max<size_t>(
                static_cast<size_t>(0.05 * static_cast<double>(total)), 32));
  // Floor of two extents for tiny fractions.
  EXPECT_EQ(db.FramesForFraction(0.0001), 32u);
}

TEST(DatabaseTest, RunStartsFromColdStateEachTime) {
  Database db;
  ASSERT_TRUE(workload::GenerateLineitem(db.catalog(), "lineitem",
                                         workload::LineitemRowsForPages(64), 1)
                  .ok());
  StreamSpec s;
  s.queries.push_back(workload::MakeQ6Like("lineitem"));

  RunConfig c;
  c.buffer.num_frames = 32;
  auto first = db.Run(c, {s});
  auto second = db.Run(c, {s});
  ASSERT_TRUE(first.ok() && second.ok());
  // Identical cold runs: every counter matches.
  EXPECT_EQ(first->makespan, second->makespan);
  EXPECT_EQ(first->disk.pages_read, second->disk.pages_read);
  EXPECT_EQ(first->buffer.misses, second->buffer.misses);
}

TEST(DatabaseTest, ModeSelectsReplacementPolicyAndOperators) {
  Database db;
  ASSERT_TRUE(workload::GenerateLineitem(db.catalog(), "lineitem",
                                         workload::LineitemRowsForPages(64), 1)
                  .ok());
  StreamSpec s;
  s.queries.push_back(workload::MakeQ6Like("lineitem"));

  RunConfig base;
  base.mode = ScanMode::kBaseline;
  base.buffer.num_frames = 32;
  auto base_run = db.Run(base, {s});
  ASSERT_TRUE(base_run.ok());
  EXPECT_EQ(base_run->ssm.scans_started, 0u);

  RunConfig shared = base;
  shared.mode = ScanMode::kShared;
  auto shared_run = db.Run(shared, {s});
  ASSERT_TRUE(shared_run.ok());
  EXPECT_EQ(shared_run->ssm.scans_started, 1u);
}

TEST(DatabaseTest, SsmOptionsInheritBufferGeometry) {
  Database db;
  ASSERT_TRUE(workload::GenerateLineitem(db.catalog(), "lineitem",
                                         workload::LineitemRowsForPages(64), 1)
                  .ok());
  StreamSpec s;
  s.queries.push_back(workload::MakeQ6Like("lineitem"));

  RunConfig c;
  c.mode = ScanMode::kShared;
  c.buffer.num_frames = 48;
  c.buffer.prefetch_extent_pages = 8;
  c.ssm.bufferpool_pages = 999999;       // Must be overridden.
  c.ssm.prefetch_extent_pages = 999999;  // Must be overridden.
  auto run = db.Run(c, {s});
  ASSERT_TRUE(run.ok());  // Would misbehave wildly if not overridden; smoke.
  EXPECT_GT(run->makespan, 0u);
}

TEST(DatabaseTest, QueryResultsIdenticalAcrossModes) {
  Database db;
  ASSERT_TRUE(workload::GenerateLineitem(db.catalog(), "lineitem",
                                         workload::LineitemRowsForPages(64), 7)
                  .ok());
  std::vector<StreamSpec> streams(3);
  streams[0].queries.push_back(workload::MakeQ1Like("lineitem"));
  streams[1].queries.push_back(workload::MakeQ6Like("lineitem"));
  streams[2].queries.push_back(workload::MakeMidWeight("lineitem"));

  RunConfig c;
  c.buffer.num_frames = 32;
  c.mode = ScanMode::kBaseline;
  auto base = db.Run(c, streams);
  c.mode = ScanMode::kShared;
  auto shared = db.Run(c, streams);
  ASSERT_TRUE(base.ok() && shared.ok());

  for (size_t s = 0; s < streams.size(); ++s) {
    const auto& bq = base->streams[s].queries[0].output;
    const auto& sq = shared->streams[s].queries[0].output;
    ASSERT_EQ(bq.groups.size(), sq.groups.size()) << "stream " << s;
    for (size_t g = 0; g < bq.groups.size(); ++g) {
      EXPECT_EQ(bq.groups[g].key, sq.groups[g].key);
      ASSERT_EQ(bq.groups[g].values.size(), sq.groups[g].values.size());
      for (size_t v = 0; v < bq.groups[g].values.size(); ++v) {
        EXPECT_NEAR(bq.groups[g].values[v], sq.groups[g].values[v],
                    std::abs(bq.groups[g].values[v]) * 1e-9 + 1e-9)
            << "stream " << s << " group " << g << " value " << v;
      }
    }
  }
}

// A prefetch extent of 0 reads one page at a time: the pool reports the
// effective extent (>= 1), so the scan operators' chunking, the miss path
// and the SSM's EffectiveExtent all see the same one-page quantum. Each
// run must match its extent-1 twin bit for bit.
TEST(DatabaseTest, ZeroExtentRunsAsOnePageExtent) {
  auto db = testutil::MakeLineitemDb(64, 3);
  const std::vector<StreamSpec> streams =
      testutil::StaggeredQ1Q6("lineitem", sim::Millis(20));
  RunConfig push = testutil::MakeRunConfig(ScanMode::kShared, 32);
  push.io.prefetch_depth = 4;
  const std::pair<const char*, RunConfig> configs[] = {
      {"baseline", testutil::MakeRunConfig(ScanMode::kBaseline, 32)},
      {"shared pull", testutil::MakeRunConfig(ScanMode::kShared, 32)},
      {"shared push", push},
  };
  for (const auto& [label, config] : configs) {
    RunConfig zero = config, one = config;
    zero.buffer.prefetch_extent_pages = 0;
    one.buffer.prefetch_extent_pages = 1;
    auto zero_run = db->Run(zero, streams);
    auto one_run = db->Run(one, streams);
    ASSERT_TRUE(zero_run.ok()) << label << ": " << zero_run.status().ToString();
    ASSERT_TRUE(one_run.ok()) << label << ": " << one_run.status().ToString();
    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(*zero_run, *one_run, &diff))
        << label << ": first difference at " << diff;
  }
}

}  // namespace
}  // namespace scanshare::exec
