// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// bench_p2_parallel: wall-clock measurement of the deterministic
// parallelism work, in two parts:
//
//   1. Run driver: a fairness-cap sweep (8 caps x base/shared = 16
//      independent simulation runs) executed through RunJobs with one
//      worker vs a thread pool. Before timing anything, every per-job
//      result of the parallel driver is checked bit-identical to the
//      sequential driver's (metrics::BitIdentical) — the speedup is only
//      reported for a driver that provably changes nothing.
//   2. Intra-query morsel parallelism: RunQueryParallel on Q1 and Q6 at
//      jobs=1 vs --intra-jobs=N over the latch-partitioned buffer pool.
//      Aggregates are verified bit-identical (metrics::BitIdentical on
//      QueryOutput) before anything is timed.
//
// Like bench_p1, these are real elapsed times of this process (the figure
// benches report virtual time). The machine's core count bounds part 1:
// on a single-core box the parallel driver can only add thread overhead,
// and the JSON records hardware_concurrency so readers can interpret the
// ratio. Use --json=PATH for the artifact (BENCH_parallel.json).

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "exec/parallel_scan.h"

namespace scanshare::bench {
namespace {

std::vector<RunJob> MakeSweepJobs(const exec::Database& db,
                                  const BenchConfig& config) {
  std::vector<exec::StreamSpec> streams(2);
  streams[0].queries.assign(config.queries_per_stream,
                            workload::MakeQ6Like("lineitem"));
  streams[1].queries.assign(config.queries_per_stream,
                            workload::MakeQ1Like("lineitem"));
  const double caps[] = {0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 0.9, 1.0};
  std::vector<RunJob> jobs;
  for (double cap : caps) {
    RunJob base;
    base.run = MakeRunConfig(db, config, exec::ScanMode::kBaseline);
    base.streams = streams;
    jobs.push_back(std::move(base));
    RunJob shared;
    shared.run = MakeRunConfig(db, config, exec::ScanMode::kShared);
    shared.run.ssm.fairness_cap = cap;
    shared.streams = streams;
    jobs.push_back(std::move(shared));
  }
  return jobs;
}

uint64_t ResultsChecksum(const std::vector<exec::RunResult>& results) {
  uint64_t sum = 0;
  for (const exec::RunResult& r : results) {
    sum += r.disk.pages_read + static_cast<uint64_t>(r.makespan);
  }
  return sum;
}

}  // namespace

int Main(int argc, char** argv) {
  BenchConfig config = ParseFlags(argc, argv);
  auto db = BuildDatabase(config);
  PrintHeader("P2: parallel run driver + intra-query parallelism", *db,
              config);

  const size_t hw = ThreadPool::HardwareConcurrency();
  BenchConfig seq_config = config;
  seq_config.jobs = 1;
  BenchConfig par_config = config;
  if (par_config.jobs <= 1) par_config.jobs = 8;
  const auto factory = [&config] { return BuildDatabase(config); };
  const std::vector<RunJob> jobs = MakeSweepJobs(*db, config);
  std::printf("driver batch: %zu runs | hardware threads: %zu | jobs=%d\n\n",
              jobs.size(), hw, par_config.jobs);

  // Determinism first: the parallel driver must be invisible in the output.
  const std::vector<exec::RunResult> seq = RunJobs(seq_config, factory, jobs);
  const std::vector<exec::RunResult> par = RunJobs(par_config, factory, jobs);
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::string diff;
    if (!metrics::BitIdentical(seq[i], par[i], &diff)) {
      std::fprintf(stderr,
                   "FAIL: job %zu differs between jobs=1 and jobs=%d (%s)\n", i,
                   par_config.jobs, diff.c_str());
      std::exit(1);
    }
  }
  std::printf("determinism: %zu/%zu runs bit-identical (jobs=1 vs jobs=%d)\n\n",
              jobs.size(), jobs.size(), par_config.jobs);

  const double batch_ops = static_cast<double>(jobs.size());
  WallMeasurement driver_seq =
      MeasureWall("driver_jobs1", batch_ops, config.warmup, config.reps, [&] {
        return ResultsChecksum(RunJobs(seq_config, factory, jobs));
      });
  WallMeasurement driver_par = MeasureWall(
      "driver_jobs" + std::to_string(par_config.jobs), batch_ops, config.warmup,
      config.reps,
      [&] { return ResultsChecksum(RunJobs(par_config, factory, jobs)); });
  if (driver_seq.checksum != driver_par.checksum) {
    std::fprintf(stderr, "FAIL: driver checksums diverged during timing\n");
    std::exit(1);
  }
  const double driver_speedup =
      driver_seq.ops_per_sec() > 0
          ? driver_par.ops_per_sec() / driver_seq.ops_per_sec()
          : 0.0;

  // Intra-query morsel parallelism: one query, many workers over the
  // latch-partitioned pool. On a single-core box extra workers can only
  // add latch and scheduling overhead — say so loudly instead of letting
  // a ~1.0x "speedup" masquerade as a parallelism result.
  const size_t intra_jobs = config.intra_jobs > 0
                                ? static_cast<size_t>(config.intra_jobs)
                                : (hw > 1 ? hw : 2);
  const bool single_core = hw == 1;
  if (single_core) {
    std::printf(
        "\n*** NOTICE: hardware_concurrency() == 1 on this machine. ***\n"
        "*** The intra-query numbers below measure determinism and   ***\n"
        "*** overhead only; no parallel speedup is possible here.    ***\n\n");
  }
  const exec::RunConfig intra_cfg =
      MakeRunConfig(*db, config, exec::ScanMode::kShared);
  struct IntraSeries {
    std::string name;
    WallMeasurement jobs1;
    WallMeasurement jobsN;
    double speedup = 0.0;
    uint64_t tuples = 0;
  };
  std::vector<IntraSeries> intra_series;
  for (const exec::QuerySpec& query :
       {workload::MakeQ1Like("lineitem"), workload::MakeQ6Like("lineitem")}) {
    exec::ParallelScanOptions one;
    one.jobs = 1;
    exec::ParallelScanOptions many;
    many.jobs = intra_jobs;
    // Determinism gate: jobs=1 and jobs=N must agree bit for bit.
    auto probe1 = exec::RunQueryParallel(db.get(), intra_cfg, query, one);
    auto probeN = exec::RunQueryParallel(db.get(), intra_cfg, query, many);
    if (!probe1.ok() || !probeN.ok()) {
      std::fprintf(stderr, "intra-query probe run failed for %s\n",
                   query.name.c_str());
      std::exit(1);
    }
    std::string intra_diff;
    if (!metrics::BitIdentical(probe1->output, probeN->output, &intra_diff)) {
      std::fprintf(stderr,
                   "FAIL: %s aggregates differ between intra jobs=1 and "
                   "jobs=%zu (%s)\n",
                   query.name.c_str(), intra_jobs, intra_diff.c_str());
      std::exit(1);
    }
    IntraSeries series;
    series.name = query.name;
    series.tuples = probe1->metrics.tuples_scanned;
    const double intra_ops = static_cast<double>(series.tuples);
    series.jobs1 = MeasureWall("intra_" + query.name + "_jobs1", intra_ops,
                               config.warmup, config.reps, [&] {
                                 auto run = exec::RunQueryParallel(
                                     db.get(), intra_cfg, query, one);
                                 if (!run.ok()) std::exit(1);
                                 return run->output.rows_matched;
                               });
    series.jobsN = MeasureWall(
        "intra_" + query.name + "_jobs" + std::to_string(intra_jobs),
        intra_ops, config.warmup, config.reps, [&] {
          auto run = exec::RunQueryParallel(db.get(), intra_cfg, query, many);
          if (!run.ok()) std::exit(1);
          return run->output.rows_matched;
        });
    series.speedup = series.jobs1.ops_per_sec() > 0
                         ? series.jobsN.ops_per_sec() / series.jobs1.ops_per_sec()
                         : 0.0;
    intra_series.push_back(std::move(series));
  }
  std::printf("intra-query parity: %zu/%zu queries bit-identical "
              "(jobs=1 vs jobs=%zu)\n\n",
              intra_series.size(), intra_series.size(), intra_jobs);

  PrintWall(driver_seq);
  PrintWall(driver_par);
  std::printf("%-28s %12.2fx\n", "driver speedup (parallel)", driver_speedup);
  for (const IntraSeries& s : intra_series) {
    PrintWall(s.jobs1);
    PrintWall(s.jobsN);
    std::printf("%-28s %12.2fx%s\n", ("intra speedup (" + s.name + ")").c_str(),
                s.speedup, single_core ? "  [single-core host]" : "");
  }

  if (!config.json_path.empty()) {
    JsonObject cfg;
    cfg.Put("pages", config.pages)
        .Put("streams", static_cast<uint64_t>(config.streams))
        .Put("queries_per_stream",
             static_cast<uint64_t>(config.queries_per_stream))
        .Put("seed", config.seed)
        .Put("extent_pages", config.extent_pages)
        .Put("warmup", config.warmup)
        .Put("reps", config.reps)
        .Put("hardware_concurrency", static_cast<uint64_t>(hw))
        .Put("jobs_parallel", par_config.jobs);
    JsonObject driver;
    driver.Put("runs_per_batch", static_cast<uint64_t>(jobs.size()))
        .Put("bit_identical_runs", static_cast<uint64_t>(jobs.size()))
        .PutRaw("jobs1", WallToJson(driver_seq))
        .PutRaw("jobsN", WallToJson(driver_par))
        .Put("speedup_parallel", driver_speedup);
    JsonObject intra;
    intra.Put("jobs", static_cast<uint64_t>(intra_jobs))
        .Put("single_core_notice", single_core ? std::string("true")
                                               : std::string("false"));
    for (const IntraSeries& s : intra_series) {
      JsonObject q;
      q.Put("tuples_per_run", s.tuples)
          .PutRaw("jobs1", WallToJson(s.jobs1))
          .PutRaw("jobsN", WallToJson(s.jobsN))
          .Put("speedup", s.speedup)
          .Put("bit_identical", std::string("true"));
      intra.PutRaw(s.name, q.ToString());
    }
    JsonObject root;
    root.Put("bench", std::string("p2_parallel"))
        .PutRaw("config", cfg.ToString())
        .PutRaw("driver", driver.ToString())
        .PutRaw("intra_query", intra.ToString());
    WriteFileOrDie(config.json_path, root.ToString());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

}  // namespace scanshare::bench

int main(int argc, char** argv) { return scanshare::bench::Main(argc, argv); }
