// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Kernel run-ahead (DESIGN.md §10.4): worker threads may run each scan's
// tuple kernel ahead of the event loop, but no result may depend on it.
//
//   Bit-identity        the same runs with 0, 1 and 3 workers are
//                       metrics::BitIdentical, trace events included: a
//                       Table-1-shaped pull run, a staggered push-sim run,
//                       a push-file run, an index-scan mix over an MDC
//                       table, and a scan-service run (workers come from
//                       the CPUs the process may use, so that run varies
//                       its CPU affinity).
//   The walk            ScanWalk's page order; a page fetched out of walk
//                       order, or past its end, returns Internal.
//   The worker path     a kernel whose worker ran its whole walk before
//                       the first Take hands out the same page results,
//                       error and aggregate as an inline kernel: a wrapped
//                       table walk, a block walk and an invalid page.
//   Worker count        RunAheadWorkerCount on a ThreadPool(n) worker is
//                       max(1, cpus / n) - 1, and cpus - 1 off any pool.
//   Errors              an invalid page returns the same Corruption at the
//                       same page with 0 and 3 workers; a push-file image
//                       with one flipped byte returns Corruption naming
//                       that page; a run that fails mid-walk while workers
//                       run ahead tears down cleanly, and a clean rerun is
//                       bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/thread_pool.h"
#include "exec/chunk_processor.h"
#include "exec/engine.h"
#include "exec/kernel_runahead.h"
#include "io/file_backend.h"
#include "metrics/report.h"
#include "service/scan_service.h"
#include "service/service_metrics.h"
#include "testutil.h"
#include "workload/mdc_gen.h"
#include "workload/queries.h"

#ifdef __linux__
#include <sched.h>
#endif

namespace scanshare {
namespace {

constexpr size_t kWorkerCounts[] = {0, 1, 3};
constexpr uint64_t kExtent = 16;
constexpr uint64_t kTablePages = 256;

/// Runs `streams` as Database::Run does, with the kernel on `workers`
/// workers (0: inline on the event loop).
StatusOr<exec::RunResult> RunWith(exec::Database* db,
                                  const exec::RunConfig& config,
                                  const std::vector<exec::StreamSpec>& streams,
                                  size_t workers) {
  // Declared before the engine, so the engine's cursors cancel their
  // kernels before these workers are joined.
  std::unique_ptr<ThreadPool> pool =
      workers > 0 ? std::make_unique<ThreadPool>(workers) : nullptr;
  SCANSHARE_ASSIGN_OR_RETURN(std::unique_ptr<exec::EngineInstance> engine,
                             exec::EngineInstance::Create(db, config));
  engine->executor()->SetKernelWorkers(pool.get());
  SCANSHARE_ASSIGN_OR_RETURN(
      exec::RunResult result,
      engine->executor()->Run(streams, config.series_bucket,
                              config.record_traces));
  result.trace = engine->trace();
  return result;
}

/// Position samples and every trace event on.
exec::RunConfig Traced(exec::RunConfig config) {
  config.record_traces = true;
  config.trace.enabled = true;
  return config;
}

void ExpectSameEvents(const exec::RunResult& a, const exec::RunResult& b) {
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  const std::vector<obs::TraceEvent>& ea = a.trace->events();
  const std::vector<obs::TraceEvent>& eb = b.trace->events();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "event " << i);
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].at, eb[i].at);
    EXPECT_EQ(ea[i].dur, eb[i].dur);
    EXPECT_EQ(ea[i].actor, eb[i].actor);
    EXPECT_EQ(ea[i].arg0, eb[i].arg0);
    EXPECT_EQ(ea[i].arg1, eb[i].arg1);
  }
}

/// Runs `streams` with every worker count and requires each run to be
/// bit-identical to the inline one.
void ExpectSameAcrossWorkers(exec::Database* db, const exec::RunConfig& config,
                             const std::vector<exec::StreamSpec>& streams) {
  const StatusOr<exec::RunResult> inline_run = RunWith(db, config, streams, 0);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status().ToString();
  for (size_t workers : kWorkerCounts) {
    if (workers == 0) continue;
    SCOPED_TRACE(testing::Message() << workers << " workers");
    const StatusOr<exec::RunResult> run = RunWith(db, config, streams, workers);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(*inline_run, *run, &diff))
        << "first diff: " << diff;
    ExpectSameEvents(*inline_run, *run);
  }
}

TEST(KernelRunAheadTest, TableOneShapedRunIsBitIdentical) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/2024);
  const std::vector<exec::StreamSpec> streams = workload::MakeThroughputStreams(
      workload::DefaultQueryMix("lineitem"), /*num_streams=*/5,
      /*queries_per_stream=*/4, /*seed=*/7);
  const size_t frames = db->FramesForFraction(0.05, kExtent);
  for (exec::ScanMode mode : {exec::ScanMode::kShared, exec::ScanMode::kBaseline}) {
    SCOPED_TRACE(mode == exec::ScanMode::kShared ? "shared" : "baseline");
    ExpectSameAcrossWorkers(
        db, Traced(testutil::MakeRunConfig(mode, frames, kExtent)), streams);
  }
}

TEST(KernelRunAheadTest, StaggeredPushSimRunIsBitIdentical) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/3);
  exec::RunConfig config = Traced(
      testutil::MakeRunConfig(exec::ScanMode::kShared, 4 * kExtent, kExtent));
  config.io.prefetch_depth = 4;
  ExpectSameAcrossWorkers(db, config,
                          testutil::StaggeredQ1Q6("lineitem", sim::Millis(50)));
}

TEST(KernelRunAheadTest, PushFileRunIsBitIdentical) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/3);
  const std::string path = testing::TempDir() + "/kernel_runahead_push.tbl";
  ASSERT_TRUE(io::FileIoBackend::WriteTableFile(*db->disk_manager(), path).ok());
  exec::RunConfig config = Traced(
      testutil::MakeRunConfig(exec::ScanMode::kShared, 4 * kExtent, kExtent));
  config.io.prefetch_depth = 4;
  config.io.backend = exec::IoOptions::Backend::kFile;
  config.io.file_path = path;
  ExpectSameAcrossWorkers(db, config,
                          testutil::StaggeredQ1Q6("lineitem", sim::Millis(50)));
  std::remove(path.c_str());
}

TEST(KernelRunAheadTest, IndexScanMixOverMdcTableIsBitIdentical) {
  exec::Database db;
  workload::MdcOptions mdc;
  mdc.block_pages = 4;
  mdc.num_regions = 2;
  mdc.days_per_key = 365;  // 7 keys.
  ASSERT_TRUE(
      workload::GenerateMdcLineitem(db.catalog(), "mdc", 40000, 2024, mdc).ok());
  std::vector<exec::StreamSpec> streams(4);
  streams[0].queries = {workload::MakeIndexQ6Like("mdc", 0, 6),
                        workload::MakeIndexHeavy("mdc", 2, 5)};
  streams[1].start_delay = sim::Millis(10);
  streams[1].queries = {workload::MakeIndexHeavy("mdc", 0, 6),
                        workload::MakeIndexCount("mdc", 3, 3)};
  streams[2].start_delay = sim::Millis(25);
  streams[2].queries = {workload::MakeIndexCount("mdc", 1, 6),
                        workload::MakeIndexQ6Like("mdc", 5, 6)};
  streams[3].start_delay = sim::Millis(5);
  streams[3].queries = {workload::MakeRangeScan("mdc", 0.0, 1.0, "T")};
  for (exec::ScanMode mode : {exec::ScanMode::kShared, exec::ScanMode::kBaseline}) {
    SCOPED_TRACE(mode == exec::ScanMode::kShared ? "shared" : "baseline");
    ExpectSameAcrossWorkers(
        &db, Traced(testutil::MakeRunConfig(mode, 24, mdc.block_pages)),
        streams);
  }
}

// ---------------------------------------------------------------- service

#ifdef __linux__
/// Restricts the calling thread to the first `cpus` CPUs of its affinity
/// mask for one scope, so the engines built in it get `cpus` - 1 workers.
class CpuLimit {
 public:
  explicit CpuLimit(int cpus) {
    ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
          CPU_COUNT(&saved_) >= cpus;
    if (!ok_) return;
    cpu_set_t limited;
    CPU_ZERO(&limited);
    int kept = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && kept < cpus; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &limited);
        ++kept;
      }
    }
    ok_ = sched_setaffinity(0, sizeof(limited), &limited) == 0;
  }
  ~CpuLimit() {
    if (ok_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuLimit(const CpuLimit&) = delete;
  CpuLimit& operator=(const CpuLimit&) = delete;

  /// False if the process may not use that many CPUs.
  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_{};
  bool ok_ = false;
};

void ExpectSameServiceRun(const service::ServiceResult& a,
                          const service::ServiceResult& b) {
  const std::vector<obs::MetricSample> ma = service::CollectServiceMetrics(a);
  const std::vector<obs::MetricSample> mb = service::CollectServiceMetrics(b);
  ASSERT_EQ(ma.size(), mb.size());
  for (size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].name, mb[i].name);
    EXPECT_EQ(ma[i].counter, mb[i].counter) << ma[i].name;
    EXPECT_EQ(std::memcmp(&ma[i].gauge, &mb[i].gauge, sizeof(double)), 0)
        << ma[i].name;
  }
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "job " << i);
    const service::JobRecord& ja = a.jobs[i];
    const service::JobRecord& jb = b.jobs[i];
    EXPECT_EQ(ja.table, jb.table);
    EXPECT_EQ(ja.client, jb.client);
    EXPECT_EQ(ja.query, jb.query);
    EXPECT_EQ(ja.arrival, jb.arrival);
    EXPECT_EQ(ja.shed, jb.shed);
    EXPECT_EQ(ja.from_queue, jb.from_queue);
    EXPECT_EQ(ja.admit_at, jb.admit_at);
    EXPECT_EQ(ja.end, jb.end);
    EXPECT_EQ(counters::FirstDiff(exec::kScanMetricsCounters, ja.metrics,
                                  jb.metrics),
              nullptr);
    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(ja.output, jb.output, &diff)) << diff;
  }
}

TEST(KernelRunAheadTest, ServiceRunIsBitIdentical) {
  exec::Database db;
  service::ServiceOptions options;
  options.workload.num_tables = 4;
  options.workload.mdc_every = 2;
  options.workload.pages_per_table = 96;
  options.workload.seed = 31;
  options.arrival.kind = service::ArrivalKind::kClosedLoop;
  options.arrival.seed = 5;
  options.arrival.num_jobs = 48;
  options.arrival.clients = 12;
  options.arrival.think_time = sim::Millis(20);
  options.admission.global_cap = 6;
  options.admission.per_table_cap = 3;
  options.run = testutil::MakeRunConfig(exec::ScanMode::kShared, 4 * kExtent,
                                        kExtent);
  options.run.trace.enabled = true;
  auto tables = service::BuildServiceTables(db.catalog(), options.workload);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();

  auto run_on = [&](int cpus) -> StatusOr<service::ServiceResult> {
    CpuLimit limit(cpus);
    if (!limit.ok()) return Status::NotSupported("too few CPUs");
    EXPECT_EQ(exec::RunAheadWorkerCount(), static_cast<size_t>(cpus - 1));
    service::ScanService svc(&db);
    return svc.Run(options, *tables);
  };
  const StatusOr<service::ServiceResult> inline_run = run_on(1);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status().ToString();
  EXPECT_GT(inline_run->admission.queued, 0u);  // Admission really acted.
  size_t compared = 0;
  for (size_t workers : kWorkerCounts) {
    if (workers == 0) continue;
    SCOPED_TRACE(testing::Message() << workers << " workers");
    const StatusOr<service::ServiceResult> run =
        run_on(static_cast<int>(workers) + 1);
    if (run.status().code() == Status::Code::kNotSupported) continue;
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectSameServiceRun(*inline_run, *run);
    ASSERT_NE(inline_run->trace, nullptr);
    ASSERT_NE(run->trace, nullptr);
    EXPECT_EQ(inline_run->trace->events().size(), run->trace->events().size());
    ++compared;
  }
  if (compared == 0) {
    GTEST_SKIP() << "one CPU: no worker count to compare against";
  }
}

TEST(KernelRunAheadTest, WorkerCountLeavesARunDriversCpusToItsRuns) {
  size_t checked = 0;
  for (int cpus : {1, 2, 4}) {
    // Threads inherit their creator's mask, so the pools below see `cpus`.
    CpuLimit limit(cpus);
    if (!limit.ok()) continue;
    SCOPED_TRACE(testing::Message() << cpus << " CPUs");
    EXPECT_EQ(exec::RunAheadWorkerCount(), static_cast<size_t>(cpus - 1));
    for (size_t runs : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      ThreadPool driver(runs);
      const size_t expected =
          std::max<size_t>(1, static_cast<size_t>(cpus) / runs) - 1;
      EXPECT_EQ(driver.Submit([] { return exec::RunAheadWorkerCount(); }).get(),
                expected)
          << "on a worker of a pool of " << runs;
    }
    ++checked;
  }
  ASSERT_GT(checked, 0u);
}
#endif  // __linux__

// ---------------------------------------------------------------- the walk

std::vector<sim::PageId> Pages(const exec::ScanWalk& walk) {
  std::vector<sim::PageId> pages;
  for (exec::ScanWalk::Position pos = walk.Begin(); !walk.AtEnd(pos);
       walk.Next(&pos)) {
    pages.push_back(pos.page);
  }
  return pages;
}

TEST(ScanWalkTest, RangeWrapsAtItsEnd) {
  EXPECT_EQ(Pages(exec::ScanWalk::Range(10, 14, 12)),
            (std::vector<sim::PageId>{12, 13, 10, 11}));
  EXPECT_EQ(Pages(exec::ScanWalk::Range(10, 13, 10)),
            (std::vector<sim::PageId>{10, 11, 12}));
  EXPECT_EQ(exec::ScanWalk::Range(10, 14, 12).pages(), 4u);
  EXPECT_TRUE(Pages(exec::ScanWalk()).empty());
}

TEST(ScanWalkTest, BlocksWrapAndClipTheLastBlock) {
  // Blocks of 3 pages from page 100; block 2 is clipped at page 107.
  const exec::ScanWalk walk = exec::ScanWalk::Blocks({2, 0, 1}, 1, 100, 3, 107);
  EXPECT_EQ(Pages(walk),
            (std::vector<sim::PageId>{100, 101, 102, 103, 104, 105, 106}));
  EXPECT_EQ(walk.pages(), 7u);
}

/// A bound query with its processor over one table, for direct calls.
class ChunkProcessorWalkTest : public testing::Test {
 protected:
  ChunkProcessorWalkTest()
      : db_(testutil::SharedLineitemDb(64, /*seed=*/5)),
        pool_(db_->disk_manager(),
              std::make_unique<buffer::LruReplacer>(32), PoolOptions()),
        query_(workload::MakeQ6Like("lineitem")),
        agg_(query_.aggs, query_.group_by) {
    table_ = *db_->catalog()->GetTable("lineitem");
    EXPECT_TRUE(query_.predicate.Bind(table_->schema).ok());
    EXPECT_TRUE(agg_.Bind(table_->schema).ok());
    auto chunks = exec::ChunkProcessor::Create(&pool_, table_, &cost_, query_,
                                               &agg_, &metrics_);
    EXPECT_TRUE(chunks.ok());
    chunks_.emplace(std::move(chunks).value());
  }

  static buffer::BufferPoolOptions PoolOptions() {
    buffer::BufferPoolOptions options;
    options.num_frames = 32;
    options.prefetch_extent_pages = kExtent;
    return options;
  }

  exec::Database* db_;
  buffer::BufferPool pool_;
  exec::QuerySpec query_;
  exec::Aggregator agg_;
  const storage::TableInfo* table_ = nullptr;
  exec::CostModel cost_;
  exec::ScanMetrics metrics_;
  std::optional<exec::ChunkProcessor> chunks_;
};

TEST_F(ChunkProcessorWalkTest, PageOutOfWalkOrderIsInternal) {
  const sim::PageId first = table_->first_page;
  const StatusOr<sim::Micros> unwalked =
      chunks_->ProcessRange(first, first + 1, 0, buffer::PagePriority::kNormal);
  EXPECT_EQ(unwalked.status().code(), Status::Code::kFailedPrecondition);

  chunks_->StartWalk(exec::ScanWalk::Range(first, first + 32, first + 16),
                     nullptr);
  const StatusOr<sim::Micros> wrong =
      chunks_->ProcessRange(first, first + 16, 0, buffer::PagePriority::kNormal);
  EXPECT_EQ(wrong.status().code(), Status::Code::kInternal);
  EXPECT_NE(wrong.status().message().find("walk order"), std::string::npos)
      << wrong.status().ToString();

  ASSERT_TRUE(chunks_->ProcessRange(first + 16, first + 32, 0,
                                    buffer::PagePriority::kNormal)
                  .ok());
  ASSERT_TRUE(chunks_->ProcessRange(first, first + 16, 0,
                                    buffer::PagePriority::kNormal)
                  .ok());
  EXPECT_EQ(metrics_.pages_scanned, 32u);
  const StatusOr<sim::Micros> past =
      chunks_->ProcessRange(first, first + 1, 0, buffer::PagePriority::kNormal);
  EXPECT_EQ(past.status().code(), Status::Code::kInternal);
  EXPECT_TRUE(pool_.CheckInvariants().ok());
  EXPECT_TRUE(pool_.FlushAll().ok()) << "an error path leaked a pin";
}

// ---------------------------------------------------------- worker path

/// What a kernel handed out over its whole walk.
struct KernelOutcome {
  std::vector<exec::PageResult> pages;  ///< Up to the first failed Take.
  Status status;                        ///< That Take's error, if any.
  exec::QueryOutput output;             ///< The aggregator's Finish.
};

/// Runs `query`'s kernel over `walk` of `db`'s store and takes every page.
/// With `ahead`, a one-thread pool runs the whole walk first: the pool's
/// destructor drains its queue, so the worker has computed every batch
/// before the first Take. Otherwise every batch is computed inline.
KernelOutcome RunKernel(exec::Database* db, exec::QuerySpec query,
                        const exec::ScanWalk& walk, bool ahead) {
  KernelOutcome out;
  const storage::TableInfo* table = *db->catalog()->GetTable(query.table);
  EXPECT_TRUE(query.predicate.Bind(table->schema).ok());
  StatusOr<exec::CompiledPredicate> predicate =
      query.predicate.Compile(table->schema);
  EXPECT_TRUE(predicate.ok());
  exec::Aggregator agg(query.aggs, query.group_by);
  EXPECT_TRUE(agg.Bind(table->schema).ok());
  EXPECT_TRUE(agg.PrepareHot(table->schema).ok());
  auto kernel = std::make_shared<exec::ScanKernel>(
      std::move(predicate).value(), &agg, db->disk_manager(), walk, kExtent);
  if (ahead) {
    ThreadPool worker(1);
    exec::SubmitRunAhead(&worker, kernel);
  }
  uint64_t rows = 0;
  for (exec::ScanWalk::Position pos = walk.Begin(); !walk.AtEnd(pos);
       walk.Next(&pos)) {
    StatusOr<exec::PageResult> page = kernel->Take(pos.page);
    if (!page.ok()) {
      out.status = page.status();
      break;
    }
    out.pages.push_back(*page);
    rows += page->rows;
  }
  kernel->Cancel();
  out.output = agg.Finish(rows);
  return out;
}

/// The worker-run kernel and the inline one agree on every page result,
/// the error and every aggregate bit.
void ExpectWorkerPathIsInline(exec::Database* db, const exec::QuerySpec& query,
                              const exec::ScanWalk& walk) {
  const KernelOutcome inline_run = RunKernel(db, query, walk, false);
  const KernelOutcome ahead = RunKernel(db, query, walk, true);
  ASSERT_EQ(inline_run.pages.size(), ahead.pages.size());
  for (size_t i = 0; i < inline_run.pages.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "walk page " << i);
    EXPECT_EQ(inline_run.pages[i].rows, ahead.pages[i].rows);
    EXPECT_EQ(inline_run.pages[i].matched, ahead.pages[i].matched);
  }
  EXPECT_EQ(inline_run.status.ToString(), ahead.status.ToString());
  std::string diff;
  EXPECT_TRUE(metrics::BitIdentical(inline_run.output, ahead.output, &diff))
      << "first diff: " << diff;
}

TEST(KernelWorkerPathTest, WrappedTableWalkMatchesInline) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/17);
  const storage::TableInfo* table = *db->catalog()->GetTable("lineitem");
  const sim::PageId first = table->first_page;
  // Pages [first + 100, end), then [first, first + 100): 10 batches.
  const exec::ScanWalk walk =
      exec::ScanWalk::Range(first, table->end_page(), first + 100);
  for (const exec::QuerySpec& query :
       {workload::MakeQ1Like("lineitem"), workload::MakeQ6Like("lineitem")}) {
    SCOPED_TRACE(query.name);
    ExpectWorkerPathIsInline(db, query, walk);
  }
}

TEST(KernelWorkerPathTest, BlockWalkMatchesInline) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/17);
  const storage::TableInfo* table = *db->catalog()->GetTable("lineitem");
  // Blocks of 12 pages out of order from the third, the last one clipped
  // at the table's end (page 252 of 256 starts block 21).
  const exec::ScanWalk walk = exec::ScanWalk::Blocks(
      {7, 2, 21, 0, 13, 5}, 2, table->first_page, 12, table->end_page());
  ExpectWorkerPathIsInline(db, workload::MakeMidWeight("lineitem"), walk);
}

TEST(KernelWorkerPathTest, InvalidPageMatchesInline) {
  const std::unique_ptr<exec::Database> db =
      testutil::MakeLineitemDb(kTablePages, /*seed=*/19);
  const storage::TableInfo* table = *db->catalog()->GetTable("lineitem");
  const sim::PageId bad = table->first_page + 70;
  StatusOr<uint8_t*> image = db->disk_manager()->MutablePageData(bad);
  ASSERT_TRUE(image.ok());
  (*image)[0] ^= 0xFF;  // The page header's magic.
  const exec::ScanWalk walk = exec::ScanWalk::Range(
      table->first_page, table->end_page(), table->first_page + 40);
  const KernelOutcome inline_run =
      RunKernel(db.get(), workload::MakeQ1Like("lineitem"), walk, false);
  EXPECT_EQ(inline_run.pages.size(), 30u);  // Pages 40..69 of the table.
  EXPECT_EQ(inline_run.status.code(), Status::Code::kCorruption);
  ExpectWorkerPathIsInline(db.get(), workload::MakeQ1Like("lineitem"), walk);
}

// ---------------------------------------------------------------- errors

TEST(KernelRunAheadTest, InvalidPageFailsAtTheSamePageWithAndWithoutWorkers) {
  const std::unique_ptr<exec::Database> db =
      testutil::MakeLineitemDb(kTablePages, /*seed=*/9);
  constexpr sim::PageId kBad = 150;
  StatusOr<uint8_t*> image = db->disk_manager()->MutablePageData(kBad);
  ASSERT_TRUE(image.ok());
  (*image)[0] ^= 0xFF;  // The page header's magic.

  const std::vector<exec::StreamSpec> streams = workload::MakeThroughputStreams(
      workload::DefaultQueryMix("lineitem"), 3, 2, /*seed=*/3);
  for (exec::ScanMode mode : {exec::ScanMode::kShared, exec::ScanMode::kBaseline}) {
    const exec::RunConfig config =
        testutil::MakeRunConfig(mode, 4 * kExtent, kExtent);
    const StatusOr<exec::RunResult> inline_run = RunWith(db.get(), config, streams, 0);
    const StatusOr<exec::RunResult> ahead = RunWith(db.get(), config, streams, 3);
    ASSERT_FALSE(inline_run.ok());
    EXPECT_EQ(inline_run.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(inline_run.status().ToString(), ahead.status().ToString());
    EXPECT_NE(inline_run.status().message().find(
                  "page " + std::to_string(kBad) + " failed validation"),
              std::string::npos)
        << inline_run.status().ToString();
  }
}

TEST(KernelRunAheadTest, FlippedByteInPushFileImageIsCorruptionAtThatPage) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/3);
  const std::string path = testing::TempDir() + "/kernel_runahead_flip.tbl";
  ASSERT_TRUE(io::FileIoBackend::WriteTableFile(*db->disk_manager(), path).ok());
  constexpr sim::PageId kFlipped = 77;
  const uint32_t page_size = db->disk_manager()->page_size();
  {
    // The page's last byte is tuple data: validation alone cannot see it.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff at =
        static_cast<std::streamoff>((kFlipped + 1) * page_size - 1);
    file.seekg(at);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(at);
    byte = static_cast<char>(byte ^ 0x5A);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }
  exec::RunConfig config =
      testutil::MakeRunConfig(exec::ScanMode::kShared, 4 * kExtent, kExtent);
  config.io.prefetch_depth = 4;
  config.io.backend = exec::IoOptions::Backend::kFile;
  config.io.file_path = path;
  for (size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    const StatusOr<exec::RunResult> run = RunWith(
        db, config, testutil::StaggeredQ1Q6("lineitem", sim::Millis(50)),
        workers);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), Status::Code::kCorruption);
    EXPECT_NE(run.status().message().find("page " + std::to_string(kFlipped) +
                                          " differs"),
              std::string::npos)
        << run.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(KernelRunAheadTest, RunFailingMidWalkTearsDownAndRerunsClean) {
  const std::unique_ptr<exec::Database> db =
      testutil::MakeLineitemDb(kTablePages, /*seed=*/13);
  const std::vector<exec::StreamSpec> streams = workload::MakeThroughputStreams(
      workload::DefaultQueryMix("lineitem"), 5, 3, /*seed=*/11);
  const exec::RunConfig config = Traced(
      testutil::MakeRunConfig(exec::ScanMode::kShared, 4 * kExtent, kExtent));
  const StatusOr<exec::RunResult> clean = RunWith(db.get(), config, streams, 0);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Faults early, midway and late, while workers run scans ahead: the
  // failed run's cursors cancel their kernels before their aggregators go.
  const uint64_t reads = clean->disk.requests;
  ASSERT_GT(reads, 8u);
  for (uint64_t nth : {uint64_t{3}, reads / 2, reads - 1}) {
    SCOPED_TRACE(testing::Message() << "read " << nth << " fails");
    sim::DiskFaultOptions faults;
    faults.fail_nth_read = nth;
    db->env()->disk().SetFaults(faults);
    const StatusOr<exec::RunResult> failed = RunWith(db.get(), config, streams, 3);
    db->env()->disk().ClearFaults();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), Status::Code::kCorruption);
  }
  for (size_t workers : {size_t{3}, size_t{0}}) {
    const StatusOr<exec::RunResult> rerun =
        RunWith(db.get(), config, streams, workers);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(*clean, *rerun, &diff))
        << "first diff: " << diff;
    ExpectSameEvents(*clean, *rerun);
  }
}

}  // namespace
}  // namespace scanshare
