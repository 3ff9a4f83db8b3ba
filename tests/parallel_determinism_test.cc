// The determinism contract of the parallel run driver: a simulation run
// executed on a worker thread, against a private database rebuilt from
// the same seed, is bit-identical to the same run executed sequentially
// — every counter, every virtual timestamp, and every aggregate double
// matching by bit pattern (metrics::BitIdentical). This is what makes
// `--jobs=N` purely a wall-clock optimization: N must never appear in
// the output.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "exec/engine.h"
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

}  // namespace
}  // namespace scanshare
