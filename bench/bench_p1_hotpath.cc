// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// bench_p1_hotpath: wall-clock microbenchmarks of the engine's three hot
// paths:
//
//   1. Buffer-pool page translation: hit-path fetch throughput of the
//      direct-mapped translation array over a large fully-resident page
//      population visited in random order (every fetch after warmup is a
//      hit).
//   2. Stream scheduling: end-to-end engine steps/sec on a multi-stream
//      throughput run (heap-based event scheduling; the linear scan it
//      replaced was O(streams) per step).
//   3. Scan+aggregate inner loop: tuples/sec for Q6-like and Q1-like
//      processing, the interpreted reference (Predicate::Eval +
//      Aggregator::Consume per tuple) vs the engine's columnar kernel.
//      Both must match the same rows.
//
// Unlike the figure benches (virtual time), these numbers are real elapsed
// time of this process, so they vary with the machine. Use --json=PATH for
// the machine-readable artifact (see scripts/bench.sh, BENCH_hotpath.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "bench_common.h"
#include "buffer/replacer.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace scanshare::bench {
namespace {

constexpr int kFetchSweeps = 8;  // Working-set fetch sweeps per repetition.

// ------------------------------------------------------------------ fetch
//
// The translation kernel uses its own disk with small (512 B) pages so the
// pool can cache a realistically large page population (64x --pages;
// 131072 pages at defaults) without gigabytes of frame memory; the
// translation array stays compact (8 B/page).
//
// The kernel measures the pure hit path: setup faults every page in once
// (one page per miss, in a fixed random order) and leaves it pinned, the
// way a scan group holds its active extent resident; the timed sweeps then
// re-fetch the whole population in that same order, so page ids arrive
// looking random.

struct FetchRig {
  sim::Env env;
  storage::DiskManager dm;
  uint64_t pages;
  std::vector<sim::PageId> order;  // Randomized visit order.

  explicit FetchRig(const BenchConfig& config)
      : dm(&env, /*page_size=*/512), pages(config.pages * 64) {
    auto first = dm.AllocateContiguous(pages);
    if (!first.ok()) {
      std::fprintf(stderr, "alloc failed: %s\n",
                   first.status().ToString().c_str());
      std::exit(1);
    }
    order.resize(static_cast<size_t>(pages));
    for (uint64_t p = 0; p < pages; ++p) order[p] = p;
    std::mt19937_64 rng(config.seed);
    std::shuffle(order.begin(), order.end(), rng);
  }
};

uint64_t FetchSweep(buffer::BufferPool* pool,
                    const std::vector<sim::PageId>& order, uint64_t end) {
  uint64_t hits = 0;
  for (int s = 0; s < kFetchSweeps; ++s) {
    for (sim::PageId p : order) {
      auto fetched = pool->FetchPage(p, 0, 0, end);
      if (!fetched.ok()) {
        std::fprintf(stderr, "fetch failed: %s\n",
                     fetched.status().ToString().c_str());
        std::exit(1);
      }
      hits += fetched->hit ? 1 : 0;
    }
  }
  return hits;
}

WallMeasurement MeasureFetch(FetchRig* rig, const BenchConfig& config) {
  buffer::BufferPoolOptions opt;
  opt.num_frames = static_cast<size_t>(rig->pages);
  opt.prefetch_extent_pages = 1;  // Fault pages in one at a time.
  buffer::BufferPool pool(
      &rig->dm, std::make_unique<buffer::LruReplacer>(opt.num_frames), opt);
  // Fault the whole population in and hold the pins for the duration of the
  // measurement, like a scan group keeping its extent resident. Each timed
  // fetch is then a hit whose cost is dominated by PageId translation.
  for (sim::PageId p : rig->order) {
    auto fetched = pool.FetchPage(p, 0, 0, rig->pages);
    if (!fetched.ok() || fetched->hit) {
      std::fprintf(stderr, "fetch rig warmup: unexpected %s\n",
                   fetched.ok() ? "hit" : fetched.status().ToString().c_str());
      std::exit(1);
    }
  }
  const double ops =
      static_cast<double>(rig->pages) * static_cast<double>(kFetchSweeps);
  return MeasureWall("fetch_hit_array", ops, config.warmup, config.reps,
                     [&] { return FetchSweep(&pool, rig->order, rig->pages); });
}

// -------------------------------------------------------------- scheduler

struct SchedulerResult {
  WallMeasurement wall;
  uint64_t steps = 0;
};

SchedulerResult MeasureScheduler(exec::Database* db,
                                 const BenchConfig& config) {
  const auto mix = workload::DefaultQueryMix("lineitem");
  const auto streams = workload::MakeThroughputStreams(
      mix, config.streams, config.queries_per_stream, config.seed);
  const exec::RunConfig run_config =
      MakeRunConfig(*db, config, exec::ScanMode::kBaseline);

  // One untimed run to count scheduler events: every query contributes one
  // open event plus one step per extent chunk it fetched (approximated as
  // ceil(pages / extent); alignment can add one).
  auto probe = db->Run(run_config, streams);
  if (!probe.ok()) {
    std::fprintf(stderr, "scheduler probe run failed: %s\n",
                 probe.status().ToString().c_str());
    std::exit(1);
  }
  uint64_t steps = 0;
  for (const exec::StreamRecord& stream : probe->streams) {
    for (const exec::QueryRecord& q : stream.queries) {
      steps += 1 + (q.metrics.pages_scanned + config.extent_pages - 1) /
                       config.extent_pages;
    }
  }

  SchedulerResult result;
  result.steps = steps;
  result.wall = MeasureWall(
      "sched_run_steps", static_cast<double>(steps), config.warmup,
      config.reps, [&] {
        auto run = db->Run(run_config, streams);
        if (!run.ok()) {
          std::fprintf(stderr, "scheduler run failed: %s\n",
                       run.status().ToString().c_str());
          std::exit(1);
        }
        return run->disk.pages_read;
      });
  return result;
}

// ------------------------------------------------------------ tuple loop

struct TupleKernel {
  const storage::TableInfo* table = nullptr;
  storage::DiskManager* dm = nullptr;
  exec::QuerySpec spec;                 // Bound predicate inside.
  exec::Aggregator prototype;           // Bound; copied per repetition.
  exec::CompiledPredicate compiled_pred;
  uint64_t tuples = 0;                  // Total rows in the table.

  explicit TupleKernel(exec::Database* db, exec::QuerySpec query)
      : spec(std::move(query)), prototype({}, {}) {
    auto t = db->catalog()->GetTable(spec.table);
    if (!t.ok()) {
      std::fprintf(stderr, "no table %s\n", spec.table.c_str());
      std::exit(1);
    }
    table = *t;
    dm = db->disk_manager();
    tuples = table->num_tuples;
    if (!spec.predicate.empty()) {
      Status st = spec.predicate.Bind(table->schema);
      if (!st.ok()) {
        std::fprintf(stderr, "bind failed: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      auto cp = spec.predicate.Compile(table->schema);
      if (!cp.ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     cp.status().ToString().c_str());
        std::exit(1);
      }
      compiled_pred = *cp;
    }
    prototype = exec::Aggregator(spec.aggs, spec.group_by);
    Status st = prototype.Bind(table->schema);
    if (!st.ok()) {
      std::fprintf(stderr, "agg bind failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }

  const uint8_t* PageBytes(sim::PageId p) const {
    auto data = dm->PageData(p);
    if (!data.ok()) std::exit(1);
    return *data;
  }

  uint64_t RunGeneric() const {
    exec::Aggregator agg = prototype;
    const storage::Schema& schema = table->schema;
    uint64_t matched = 0;
    for (sim::PageId p = table->first_page; p < table->end_page(); ++p) {
      storage::Page view(const_cast<uint8_t*>(PageBytes(p)), dm->page_size());
      const uint16_t count = view.tuple_count();
      for (uint16_t slot = 0; slot < count; ++slot) {
        const uint8_t* tuple = view.TupleDataUnchecked(slot);
        if (spec.predicate.empty() || spec.predicate.Eval(schema, tuple)) {
          agg.Consume(schema, tuple);
          ++matched;
        }
      }
    }
    return matched;
  }

  // The columnar kernel ChunkProcessor runs: gather the page's tuple
  // pointers, build the selection bitmap in one branch-free pass, then
  // fold the survivors batch-at-a-time. The checksum (matched row count)
  // and the aggregate state it produces match RunGeneric's.
  uint64_t RunColumnar() const {
    exec::Aggregator agg = prototype;
    Status st = agg.PrepareHot(table->schema);
    if (!st.ok()) {
      std::fprintf(stderr, "PrepareHot failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    std::vector<const uint8_t*> batch;
    std::vector<uint8_t> sel;
    uint64_t matched = 0;
    for (sim::PageId p = table->first_page; p < table->end_page(); ++p) {
      storage::Page view(const_cast<uint8_t*>(PageBytes(p)), dm->page_size());
      const uint16_t count = view.tuple_count();
      batch.resize(count);
      for (uint16_t slot = 0; slot < count; ++slot) {
        batch[slot] = view.TupleDataUnchecked(slot);
      }
      sel.resize(count);
      compiled_pred.MatchBatch(batch.data(), count, sel.data());
      matched += agg.ConsumeBatch(batch.data(), sel.data(), count);
    }
    return matched;
  }
};

}  // namespace

int Main(int argc, char** argv) {
  BenchConfig config = ParseFlags(argc, argv);
  auto db = BuildDatabase(config);
  PrintHeader("P1: hot-path wall-clock microbenchmarks", *db, config);

  auto table = db->catalog()->GetTable("lineitem");
  if (!table.ok()) std::exit(1);
  const storage::TableInfo* t = *table;

  // 1. Buffer-pool hit path.
  FetchRig fetch_rig(config);
  WallMeasurement fetch_array = MeasureFetch(&fetch_rig, config);

  // 2. Scheduler: steps/sec of a full multi-stream engine run.
  SchedulerResult sched = MeasureScheduler(db.get(), config);

  // 3. Inner loop: interpreted reference vs columnar kernel.
  TupleKernel q6(db.get(), workload::MakeQ6Like("lineitem"));
  TupleKernel q1(db.get(), workload::MakeQ1Like("lineitem"));
  const double tuple_ops = static_cast<double>(t->num_tuples);
  WallMeasurement q6_generic =
      MeasureWall("tuples_q6_interpreted", tuple_ops, config.warmup,
                  config.reps, [&] { return q6.RunGeneric(); });
  WallMeasurement q1_generic =
      MeasureWall("tuples_q1_interpreted", tuple_ops, config.warmup,
                  config.reps, [&] { return q1.RunGeneric(); });
  WallMeasurement q6_columnar =
      MeasureWall("tuples_q6_columnar", tuple_ops, config.warmup, config.reps,
                  [&] { return q6.RunColumnar(); });
  WallMeasurement q1_columnar =
      MeasureWall("tuples_q1_columnar", tuple_ops, config.warmup, config.reps,
                  [&] { return q1.RunColumnar(); });
  if (q6_generic.checksum != q6_columnar.checksum ||
      q1_generic.checksum != q1_columnar.checksum) {
    std::fprintf(stderr,
                 "FAIL: the columnar kernel matched different rows than the "
                 "interpreted reference\n");
    std::exit(1);
  }
  const double q6_col_speedup = q6_generic.ops_per_sec() > 0
                                    ? q6_columnar.ops_per_sec() /
                                          q6_generic.ops_per_sec()
                                    : 0.0;
  const double q1_col_speedup = q1_generic.ops_per_sec() > 0
                                    ? q1_columnar.ops_per_sec() /
                                          q1_generic.ops_per_sec()
                                    : 0.0;

  PrintWall(fetch_array);
  PrintWall(sched.wall);
  PrintWall(q6_generic);
  PrintWall(q6_columnar);
  std::printf("%-28s %12.2fx\n", "Q6 speedup (columnar)", q6_col_speedup);
  PrintWall(q1_generic);
  PrintWall(q1_columnar);
  std::printf("%-28s %12.2fx\n", "Q1 speedup (columnar)", q1_col_speedup);

  if (!config.json_path.empty()) {
    JsonObject cfg;
    cfg.Put("pages", config.pages)
        .Put("streams", static_cast<uint64_t>(config.streams))
        .Put("queries_per_stream",
             static_cast<uint64_t>(config.queries_per_stream))
        .Put("seed", config.seed)
        .Put("extent_pages", config.extent_pages)
        .Put("fetch_kernel_pages", fetch_rig.pages)
        .Put("warmup", config.warmup)
        .Put("reps", config.reps);
    JsonObject fetch;
    fetch.PutRaw("array", WallToJson(fetch_array));
    JsonObject scheduler;
    scheduler.Put("steps_per_run", sched.steps)
        .PutRaw("run", WallToJson(sched.wall));
    JsonObject tuples;
    tuples.PutRaw("q6_interpreted", WallToJson(q6_generic))
        .PutRaw("q6_columnar", WallToJson(q6_columnar))
        .Put("q6_speedup_columnar", q6_col_speedup)
        .PutRaw("q1_interpreted", WallToJson(q1_generic))
        .PutRaw("q1_columnar", WallToJson(q1_columnar))
        .Put("q1_speedup_columnar", q1_col_speedup);
    JsonObject root;
    root.Put("bench", std::string("p1_hotpath"))
        .PutRaw("config", cfg.ToString())
        .PutRaw("fetch", fetch.ToString())
        .PutRaw("scheduler", scheduler.ToString())
        .PutRaw("tuples", tuples.ToString());
    WriteFileOrDie(config.json_path, root.ToString());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

}  // namespace scanshare::bench

int main(int argc, char** argv) { return scanshare::bench::Main(argc, argv); }
