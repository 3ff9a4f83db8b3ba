// The determinism contract of the parallel run driver: a simulation run
// executed on a worker thread, against a private database rebuilt from
// the same seed, is bit-identical to the same run executed sequentially
// — every counter, every virtual timestamp, and every aggregate double
// matching by bit pattern (metrics::BitIdentical). This is what makes
// `--jobs=N` purely a wall-clock optimization: N must never appear in
// the output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "exec/engine.h"
#include "exec/parallel_scan.h"
#include "metrics/report.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare {
namespace {

constexpr uint64_t kPages = 96;
constexpr uint64_t kSeed = 4242;

std::unique_ptr<exec::Database> FreshDb() {
  return testutil::MakeLineitemDb(kPages, kSeed);
}

struct Job {
  exec::RunConfig run;
  std::vector<exec::StreamSpec> streams;
};

// A small grid spanning both engines, staggered and throughput stream
// shapes, and a fairness-cap variant.
std::vector<Job> MakeJobs() {
  std::vector<Job> jobs;

  exec::StreamSpec q6;
  q6.queries.push_back(workload::MakeQ6Like("lineitem"));
  exec::StreamSpec q1;
  q1.queries.push_back(workload::MakeQ1Like("lineitem"));

  {
    Job j;
    j.run.mode = exec::ScanMode::kBaseline;
    j.run.buffer.num_frames = 24;
    j.streams = {q6, q6, q1};
    jobs.push_back(j);
  }
  {
    Job j;
    j.run.mode = exec::ScanMode::kShared;
    j.run.buffer.num_frames = 24;
    j.streams = {q6, q6, q1};
    jobs.push_back(j);
  }
  {
    Job j;
    j.run.mode = exec::ScanMode::kShared;
    j.run.buffer.num_frames = 16;
    j.run.ssm.fairness_cap = 0.5;
    j.streams = {q1, q6};
    jobs.push_back(j);
  }
  {
    Job j;
    j.run.mode = exec::ScanMode::kShared;
    j.run.buffer.num_frames = 32;
    j.run.record_traces = true;
    exec::StreamSpec staggered = q6;
    staggered.start_delay = 20000;
    j.streams = {q6, staggered};
    jobs.push_back(j);
  }
  {
    Job j;
    j.run.mode = exec::ScanMode::kShared;
    j.run.buffer.num_frames = 24;
    j.streams = workload::MakeThroughputStreams(
        workload::DefaultQueryMix("lineitem"), 2, 3, kSeed);
    jobs.push_back(j);
  }
  {
    // Event tracing on: the trace rides in RunResult and BitIdentical
    // compares it event-for-event, so a worker thread must reproduce the
    // sequential run's trace exactly (virtual-clock stamps only).
    Job j;
    j.run.mode = exec::ScanMode::kShared;
    j.run.buffer.num_frames = 24;
    j.run.trace.enabled = true;
    j.streams = {q6, q6, q1};
    jobs.push_back(j);
  }
  return jobs;
}

TEST(ParallelDeterminismTest, WorkerThreadRunsBitIdenticalToSequential) {
  const std::vector<Job> jobs = MakeJobs();

  // Sequential reference: one database, jobs in order — exactly what the
  // bench driver does at --jobs=1.
  std::vector<exec::RunResult> sequential(jobs.size());
  {
    auto db = FreshDb();
    for (size_t i = 0; i < jobs.size(); ++i) {
      auto r = db->Run(jobs[i].run, jobs[i].streams);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      sequential[i] = *std::move(r);
    }
  }

  // Parallel: 8 workers, each job on its own private database, results
  // merged into pre-sized slots in index order.
  std::vector<exec::RunResult> parallel(jobs.size());
  testutil::ConcurrencyWitness witness;
  {
    ThreadPool pool(8);
    pool.ParallelFor(jobs.size(), [&](size_t i) {
      witness.Enter();
      auto db = FreshDb();
      auto r = db->Run(jobs[i].run, jobs[i].streams);
      witness.Exit();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      parallel[i] = *std::move(r);
    });
  }
  // On a single-core host the pool may never overlap two jobs; that makes
  // this a sequential-vs-sequential comparison, which must be said loudly
  // rather than silently passing as a concurrency test.
  EXPECT_TRUE(testutil::OverlapObservedOrSingleCoreNoted(
      "parallel_determinism_test", witness.max_concurrent()));

  for (size_t i = 0; i < jobs.size(); ++i) {
    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(sequential[i], parallel[i], &diff))
        << "job " << i << " differs at " << diff;
  }
}

// Re-running the same job on the same database must also be bit-stable
// (Database::Run resets all mutable state); this is the property the
// parallel driver builds on, checked in isolation so a violation points
// at the engine rather than the pool.
TEST(ParallelDeterminismTest, RepeatedRunsOnOneDatabaseBitIdentical) {
  auto db = FreshDb();
  exec::StreamSpec q6;
  q6.queries.push_back(workload::MakeQ6Like("lineitem"));
  exec::RunConfig c;
  c.mode = exec::ScanMode::kShared;
  c.buffer.num_frames = 24;

  auto first = db->Run(c, {q6, q6});
  ASSERT_TRUE(first.ok());
  auto second = db->Run(c, {q6, q6});
  ASSERT_TRUE(second.ok());

  std::string diff;
  EXPECT_TRUE(metrics::BitIdentical(*first, *second, &diff))
      << "differs at " << diff;
}

// Intra-query determinism: the morsel-parallel scan must produce
// bit-identical aggregates (output rows, group keys, every double by bit
// pattern) for jobs=1 and jobs=8 on the same database — regardless of
// which worker claims which morsel or where the SSM rotates the start
// position. Buffer/disk counters are NOT part of this contract (eviction
// order depends on scheduling); QueryOutput and the row counters are.
TEST(ParallelDeterminismTest, IntraQueryJobsBitIdenticalAggregates) {
  auto db = FreshDb();
  exec::RunConfig config;
  config.mode = exec::ScanMode::kShared;
  config.buffer.num_frames = 24;

  const std::vector<exec::QuerySpec> queries = {
      workload::MakeQ1Like("lineitem"), workload::MakeQ6Like("lineitem")};
  for (const exec::QuerySpec& query : queries) {
    exec::ParallelScanOptions one;
    one.jobs = 1;
    auto a = exec::RunQueryParallel(db.get(), config, query, one);
    ASSERT_TRUE(a.ok()) << query.name << ": " << a.status().ToString();

    exec::ParallelScanOptions eight;
    eight.jobs = 8;
    auto b = exec::RunQueryParallel(db.get(), config, query, eight);
    ASSERT_TRUE(b.ok()) << query.name << ": " << b.status().ToString();

    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(a->output, b->output, &diff))
        << query.name << " jobs=1 vs jobs=8 differs at " << diff;
    EXPECT_EQ(a->metrics.pages_scanned, b->metrics.pages_scanned)
        << query.name;
    EXPECT_EQ(a->metrics.tuples_scanned, b->metrics.tuples_scanned)
        << query.name;
    EXPECT_GT(a->output.rows_scanned, 0u) << query.name;
  }
}

// The parallel path must agree with the sequential simulation engine on
// what the query *computes*: identical row/group counters and matching
// aggregate values. Values are compared with a tight relative bound, not
// BitIdentical: the morsel merge uses a canonical per-morsel reduction
// tree while the engine folds one accumulator across the whole scan, and
// floating-point addition is not associative — bit-identity is a contract
// *within* the parallel path (jobs=1 vs jobs=N), not across engines.
TEST(ParallelDeterminismTest, IntraQueryAgreesWithSequentialEngine) {
  auto db = FreshDb();
  exec::RunConfig config;
  config.mode = exec::ScanMode::kShared;
  config.buffer.num_frames = 24;

  for (const exec::QuerySpec& query :
       {workload::MakeQ1Like("lineitem"), workload::MakeQ6Like("lineitem")}) {
    exec::StreamSpec stream;
    stream.queries.push_back(query);
    auto engine_run = db->Run(config, {stream});
    ASSERT_TRUE(engine_run.ok()) << engine_run.status().ToString();
    ASSERT_EQ(engine_run->streams.size(), 1u);
    ASSERT_EQ(engine_run->streams[0].queries.size(), 1u);
    const exec::QueryOutput& expect =
        engine_run->streams[0].queries[0].output;

    exec::ParallelScanOptions options;
    options.jobs = 4;
    auto got = exec::RunQueryParallel(db.get(), config, query, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    EXPECT_EQ(got->output.rows_scanned, expect.rows_scanned) << query.name;
    EXPECT_EQ(got->output.rows_matched, expect.rows_matched) << query.name;
    ASSERT_EQ(got->output.groups.size(), expect.groups.size()) << query.name;
    for (size_t g = 0; g < expect.groups.size(); ++g) {
      EXPECT_EQ(got->output.groups[g].key, expect.groups[g].key);
      EXPECT_EQ(got->output.groups[g].rows, expect.groups[g].rows);
      ASSERT_EQ(got->output.groups[g].values.size(),
                expect.groups[g].values.size());
      for (size_t v = 0; v < expect.groups[g].values.size(); ++v) {
        // Reassociating ~1e5 additions moves the result by a few ULPs per
        // accumulation level; a relative 1e-12 bound is ~1000x that and
        // still catches any real aggregation bug.
        const double want = expect.groups[g].values[v];
        EXPECT_NEAR(got->output.groups[g].values[v], want,
                    1e-12 * std::max(1.0, std::abs(want)))
            << query.name << " group " << g << " value " << v;
      }
    }
  }
}

}  // namespace
}  // namespace scanshare
