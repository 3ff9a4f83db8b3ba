// The service layer's determinism contract, extending
// parallel_determinism_test: the same (arrival, workload) seeds must
// produce the bit-identical arrival schedule, the identical admission
// decision for every job, and bit-identical QueryOutputs — whether the
// runs execute sequentially or on 8 worker threads against private
// databases. Thread count must never appear in service results.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "metrics/report.h"
#include "service/scan_service.h"
#include "testutil.h"

namespace scanshare {
namespace {

using service::ServiceOptions;
using service::ServiceResult;
using service::ServiceTable;

service::WorkloadSpec TinyWorkload() {
  service::WorkloadSpec w;
  w.num_tables = 4;
  w.mdc_every = 2;
  w.pages_per_table = 48;
  w.seed = 21;
  return w;
}

// A small grid of service configurations spanning all four arrival kinds,
// both engine modes, both admission regimes (roomy and saturated), and the
// push I/O pipeline.
std::vector<ServiceOptions> MakeJobs() {
  std::vector<ServiceOptions> jobs;
  {
    ServiceOptions j;
    j.workload = TinyWorkload();
    j.arrival.kind = service::ArrivalKind::kFixedRate;
    j.arrival.seed = 3;
    j.arrival.num_jobs = 60;
    j.arrival.rate_per_sec = 200.0;
    j.run.buffer.num_frames = 96;
    jobs.push_back(j);
  }
  {
    ServiceOptions j;
    j.workload = TinyWorkload();
    j.arrival.kind = service::ArrivalKind::kPoissonBurst;
    j.arrival.seed = 5;
    j.arrival.num_jobs = 80;
    j.arrival.rate_per_sec = 500.0;
    j.admission.global_cap = 8;
    j.admission.per_table_cap = 3;
    j.admission.queue_bound = 6;  // Saturated: queueing AND shedding.
    j.run.buffer.num_frames = 96;
    jobs.push_back(j);
  }
  {
    ServiceOptions j;
    j.workload = TinyWorkload();
    j.arrival.kind = service::ArrivalKind::kDiurnal;
    j.arrival.seed = 9;
    j.arrival.num_jobs = 60;
    j.arrival.rate_per_sec = 300.0;
    j.run.mode = exec::ScanMode::kBaseline;  // Service over the vanilla engine.
    j.run.buffer.num_frames = 96;
    jobs.push_back(j);
  }
  {
    ServiceOptions j;
    j.workload = TinyWorkload();
    j.arrival.kind = service::ArrivalKind::kClosedLoop;
    j.arrival.seed = 13;
    j.arrival.num_jobs = 60;
    j.arrival.clients = 12;
    j.arrival.think_time = 10'000;
    j.admission.global_cap = 6;
    j.admission.per_table_cap = 2;
    j.admission.queue_bound = 4;
    j.run.buffer.num_frames = 96;
    j.run.ssm.adaptive_regroup = true;
    jobs.push_back(j);
  }
  {
    // The push I/O pipeline under the service loop, pumped after every
    // job step.
    ServiceOptions j;
    j.workload = TinyWorkload();
    j.arrival.kind = service::ArrivalKind::kPoissonBurst;
    j.arrival.seed = 29;
    j.arrival.num_jobs = 60;
    j.arrival.rate_per_sec = 300.0;
    j.run.buffer.num_frames = 96;
    j.run.io.prefetch_depth = 8;
    jobs.push_back(j);
  }
  return jobs;
}

StatusOr<ServiceResult> RunJob(const ServiceOptions& options) {
  auto db = std::make_unique<exec::Database>();
  auto tables = service::BuildServiceTables(db->catalog(), options.workload);
  if (!tables.ok()) return tables.status();
  service::ScanService svc(db.get());
  return svc.Run(options, *tables);
}

void ExpectSameResult(const ServiceResult& a, const ServiceResult& b,
                      const std::string& label) {
  // Admission decisions, counters, and timing must agree exactly.
  EXPECT_EQ(a.admission.arrived, b.admission.arrived) << label;
  EXPECT_EQ(a.admission.admitted, b.admission.admitted) << label;
  EXPECT_EQ(a.admission.queued, b.admission.queued) << label;
  EXPECT_EQ(a.admission.shed, b.admission.shed) << label;
  EXPECT_EQ(a.admission.shed_global_cap, b.admission.shed_global_cap) << label;
  EXPECT_EQ(a.admission.shed_table_cap, b.admission.shed_table_cap) << label;
  EXPECT_EQ(a.admission.max_queue_depth, b.admission.max_queue_depth) << label;
  EXPECT_EQ(a.admission.max_running, b.admission.max_running) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.sojourn.p99, b.sojourn.p99) << label;
  EXPECT_EQ(a.disk.pages_read, b.disk.pages_read) << label;
  EXPECT_EQ(a.disk.seeks, b.disk.seeks) << label;
  EXPECT_EQ(a.io.submitted, b.io.submitted) << label;
  EXPECT_EQ(a.io.prefetch_hits, b.io.prefetch_hits) << label;
  EXPECT_EQ(a.io.dropped_stale, b.io.dropped_stale) << label;

  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    const service::JobRecord& ja = a.jobs[i];
    const service::JobRecord& jb = b.jobs[i];
    const std::string job = label + " job " + std::to_string(i);
    EXPECT_EQ(ja.table, jb.table) << job;
    EXPECT_EQ(ja.client, jb.client) << job;
    EXPECT_EQ(ja.query, jb.query) << job;
    EXPECT_EQ(ja.arrival, jb.arrival) << job;
    EXPECT_EQ(ja.shed, jb.shed) << job;
    EXPECT_EQ(ja.from_queue, jb.from_queue) << job;
    EXPECT_EQ(ja.admit_at, jb.admit_at) << job;
    EXPECT_EQ(ja.end, jb.end) << job;
    EXPECT_EQ(ja.metrics.pages_scanned, jb.metrics.pages_scanned) << job;
    EXPECT_EQ(ja.metrics.cpu, jb.metrics.cpu) << job;
    EXPECT_EQ(ja.metrics.io_stall, jb.metrics.io_stall) << job;
    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(ja.output, jb.output, &diff))
        << job << " output differs at " << diff;
  }
}

// Same specs => bit-identical precomputed schedule (time, table, client,
// template) on every call; a different seed must actually change it.
TEST(ArrivalDeterminismTest, ScheduleIsBitIdenticalAcrossCalls) {
  auto db = std::make_unique<exec::Database>();
  auto tables = service::BuildServiceTables(db->catalog(), TinyWorkload());
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();

  for (const service::ArrivalKind kind :
       {service::ArrivalKind::kFixedRate, service::ArrivalKind::kPoissonBurst,
        service::ArrivalKind::kDiurnal, service::ArrivalKind::kClosedLoop}) {
    service::ArrivalSpec spec;
    spec.kind = kind;
    spec.seed = 17;
    spec.num_jobs = 200;
    spec.rate_per_sec = 300.0;
    const auto first =
        service::GenerateArrivalSchedule(spec, TinyWorkload(), *tables);
    const auto second =
        service::GenerateArrivalSchedule(spec, TinyWorkload(), *tables);
    ASSERT_EQ(first.size(), second.size());
    ASSERT_FALSE(first.empty());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].at, second[i].at) << i;
      EXPECT_EQ(first[i].table, second[i].table) << i;
      EXPECT_EQ(first[i].client, second[i].client) << i;
      EXPECT_EQ(first[i].query.name, second[i].query.name) << i;
    }
    // Chronological, and actually random-looking under a new seed.
    for (size_t i = 1; i < first.size(); ++i) {
      EXPECT_LE(first[i - 1].at, first[i].at) << i;
    }
    service::ArrivalSpec other = spec;
    other.seed = 18;
    const auto different =
        service::GenerateArrivalSchedule(other, TinyWorkload(), *tables);
    bool any_diff = false;
    for (size_t i = 0; i < std::min(first.size(), different.size()); ++i) {
      if (first[i].at != different[i].at ||
          first[i].table != different[i].table) {
        any_diff = true;
        break;
      }
    }
    if (kind != service::ArrivalKind::kFixedRate) {
      // Fixed-rate times are seed-independent by design; the mix is not,
      // but the time/table check above is the cheap proxy for the rest.
      EXPECT_TRUE(any_diff) << service::ArrivalKindName(kind);
    }
  }
}

// Worker-thread service runs against private databases are bit-identical
// to the sequential reference — jobs=8 never shows up in any output.
TEST(ArrivalDeterminismTest, WorkerThreadRunsMatchSequential) {
  const std::vector<ServiceOptions> jobs = MakeJobs();

  std::vector<ServiceResult> sequential(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto r = RunJob(jobs[i]);
    ASSERT_TRUE(r.ok()) << "job " << i << ": " << r.status().ToString();
    sequential[i] = *std::move(r);
  }

  std::vector<ServiceResult> parallel(jobs.size());
  testutil::ConcurrencyWitness witness;
  {
    ThreadPool pool(8);
    pool.ParallelFor(jobs.size(), [&](size_t i) {
      witness.Enter();
      auto r = RunJob(jobs[i]);
      witness.Exit();
      ASSERT_TRUE(r.ok()) << "job " << i << ": " << r.status().ToString();
      parallel[i] = *std::move(r);
    });
  }
  EXPECT_TRUE(testutil::OverlapObservedOrSingleCoreNoted(
      "arrival_determinism_test", witness.max_concurrent()));

  for (size_t i = 0; i < jobs.size(); ++i) {
    ExpectSameResult(sequential[i], parallel[i], "job " + std::to_string(i));
  }
  // The saturated config must really have queued and shed (otherwise the
  // admission-decision comparison above is vacuous).
  EXPECT_GT(sequential[1].admission.queued, 0u);
  EXPECT_GT(sequential[1].admission.shed, 0u);
  // The push config must really have pushed.
  EXPECT_GT(sequential[4].io.submitted, 0u);
}

}  // namespace
}  // namespace scanshare
