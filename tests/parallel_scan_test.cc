// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// RunQueryParallel unit coverage: morsel sweep completeness (every page in
// range visited exactly once), SSM registration/advice on the parallel
// path, the concurrent tracer, baseline mode bypassing the SSM, and input
// validation. The
// bit-identity contract itself lives in parallel_determinism_test.

#include "exec/parallel_scan.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/thread_pool.h"
#include "exec/engine.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare::exec {
namespace {

constexpr uint64_t kPages = 96;
constexpr uint64_t kSeed = 4242;

class ParallelScanTest : public ::testing::Test {
 protected:
  ParallelScanTest() : db_(testutil::MakeLineitemDb(kPages, kSeed)) {
    config_.mode = ScanMode::kShared;
    config_.buffer.num_frames = 24;
  }

  std::unique_ptr<Database> db_;
  RunConfig config_;
};

TEST_F(ParallelScanTest, MorselSweepCoversEveryPageOnce) {
  ParallelScanOptions options;
  options.jobs = 4;
  auto r = RunQueryParallel(db_.get(), config_,
                            workload::MakeQ6Like("lineitem"), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // A full-table scan visits each page exactly once, regardless of how
  // morsels were distributed over workers.
  EXPECT_EQ(r->metrics.pages_scanned, kPages);
  EXPECT_GT(r->metrics.tuples_scanned, 0u);
  EXPECT_EQ(r->output.rows_scanned, r->metrics.tuples_scanned);
  EXPECT_EQ(r->jobs, 4u);
  EXPECT_GT(r->morsels, 1u);
}

TEST_F(ParallelScanTest, PartialRangeScanStaysInRange) {
  ParallelScanOptions options;
  options.jobs = 3;
  auto r = RunQueryParallel(
      db_.get(), config_,
      workload::MakeRangeScan("lineitem", 0.25, 0.75, "half"), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // [0.25, 0.75) of 96 pages = [24, 72), snapped outward to the default
  // 16-page prefetch-extent boundaries by ResolveScanRange: [16, 80).
  EXPECT_EQ(r->metrics.pages_scanned, 64u);
  EXPECT_LT(r->metrics.pages_scanned, kPages);
}

TEST_F(ParallelScanTest, SharedModeRegistersWithSsm) {
  ParallelScanOptions options;
  options.jobs = 2;
  auto r = RunQueryParallel(db_.get(), config_,
                            workload::MakeQ1Like("lineitem"), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ssm.scans_started, 1u);
  EXPECT_EQ(r->ssm.scans_ended, 1u);
  EXPECT_GT(r->ssm.updates, 0u);
}

TEST_F(ParallelScanTest, TracedRunGetsAConcurrentTracer) {
  // Every worker emits through the pool, the SSM and the disk, so the
  // engine builds the parallel run's tracer concurrent; a sequential run's
  // tracer stays lock-free.
  RunConfig traced = config_;
  traced.trace.enabled = true;
  ParallelScanOptions options;
  options.jobs = 4;
  auto r = RunQueryParallel(db_.get(), traced,
                            workload::MakeQ6Like("lineitem"), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->trace, nullptr);
  EXPECT_TRUE(r->trace->concurrent());
  EXPECT_GT(r->trace->count(obs::EventKind::kPoolMiss), 0u);

  StreamSpec stream;
  stream.queries.push_back(workload::MakeQ6Like("lineitem"));
  auto sequential = db_->Run(traced, {stream});
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  ASSERT_NE(sequential->trace, nullptr);
  EXPECT_FALSE(sequential->trace->concurrent());
}

TEST_F(ParallelScanTest, BaselineModeBypassesSsm) {
  RunConfig baseline = config_;
  baseline.mode = ScanMode::kBaseline;
  ParallelScanOptions options;
  options.jobs = 2;
  auto r = RunQueryParallel(db_.get(), baseline,
                            workload::MakeQ6Like("lineitem"), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ssm.scans_started, 0u);
  EXPECT_EQ(r->metrics.pages_scanned, kPages);
  EXPECT_EQ(r->metrics.throttle_wait, 0u);
}

TEST_F(ParallelScanTest, JobsZeroResolvesToHardwareConcurrency) {
  ParallelScanOptions options;
  options.jobs = 0;
  auto r = RunQueryParallel(db_.get(), config_,
                            workload::MakeQ6Like("lineitem"), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->jobs, ThreadPool::HardwareConcurrency());
  EXPECT_GE(r->jobs, 1u);
}

TEST_F(ParallelScanTest, WiderMorselsReduceMorselCount) {
  ParallelScanOptions narrow;
  narrow.jobs = 2;
  narrow.morsel_extents = 1;
  auto a = RunQueryParallel(db_.get(), config_,
                            workload::MakeQ6Like("lineitem"), narrow);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  ParallelScanOptions wide = narrow;
  wide.morsel_extents = 4;
  auto b = RunQueryParallel(db_.get(), config_,
                            workload::MakeQ6Like("lineitem"), wide);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_LT(b->morsels, a->morsels);
  EXPECT_EQ(a->metrics.pages_scanned, b->metrics.pages_scanned);
}

TEST_F(ParallelScanTest, RejectsIndexScanQueries) {
  QuerySpec q = workload::MakeQ6Like("lineitem");
  q.access = AccessPath::kIndexScan;
  ParallelScanOptions options;
  auto r = RunQueryParallel(db_.get(), config_, q, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotSupported);
}

// The morsel driver never pumps the push pipeline, so a push or file
// configuration must fail loudly instead of quietly running as pull-sim.
TEST_F(ParallelScanTest, RejectsPushPipelineConfigs) {
  const QuerySpec q = workload::MakeQ6Like("lineitem");
  RunConfig push = config_;
  push.io.prefetch_depth = 8;
  auto r = RunQueryParallel(db_.get(), push, q, ParallelScanOptions{});
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);

  RunConfig file = config_;
  file.io.backend = IoOptions::Backend::kFile;
  file.io.file_path = testing::TempDir() + "/parallel_scan_unused.tbl";
  r = RunQueryParallel(db_.get(), file, q, ParallelScanOptions{});
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace scanshare::exec
