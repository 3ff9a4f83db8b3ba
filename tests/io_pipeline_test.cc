// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Push-pipeline tests, two layers:
//
//   Prefetcher unit tests   drive Pump/Acquire directly against a real
//                           ScanSharingManager — window issue, prefetch
//                           hits, sync fallback, stale drops after a
//                           frontier move or scan end, and queue-bound
//                           backpressure.
//   Engine integration      push-sim runs produce the same query outputs
//                           as the legacy pull path, are bit-reproducible
//                           across repetitions, actually hit the ready
//                           queue, and surface injected faults with the
//                           same status the pull path reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "io/file_backend.h"
#include "io/prefetcher.h"
#include "io/sim_backend.h"
#include "metrics/metrics_export.h"
#include "metrics/report.h"
#include "service/scan_service.h"
#include "service/service_metrics.h"
#include "ssm/scan_sharing_manager.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare {
namespace {

constexpr uint64_t kExtent = 16;
constexpr uint64_t kTablePages = 256;

/// A full-table scan descriptor over [0, kTablePages).
ssm::ScanDescriptor FullScan() {
  ssm::ScanDescriptor desc;
  desc.table_id = 1;
  desc.table_first = 0;
  desc.table_end = kTablePages;
  desc.range_first = 0;
  desc.range_end = kTablePages;
  desc.estimated_pages = kTablePages;
  desc.estimated_duration = sim::Seconds(1);
  return desc;
}

ssm::SsmOptions SsmOpts() {
  ssm::SsmOptions options;
  options.bufferpool_pages = 1024;
  options.prefetch_extent_pages = kExtent;
  return options;
}

class PrefetcherTest : public testing::Test {
 protected:
  PrefetcherTest()
      : db_(testutil::MakeLineitemDb(kTablePages, /*seed=*/11)),
        backend_(db_->disk_manager()),
        ssm_(SsmOpts(), nullptr, nullptr) {}

  io::Prefetcher MakePrefetcher(uint64_t depth, uint64_t queue_bound = 0) {
    io::PrefetchOptions options;
    options.depth = depth;
    options.queue_bound = queue_bound;
    return io::Prefetcher(&backend_, &ssm_, /*residency=*/nullptr, kExtent,
                          options);
  }

  std::unique_ptr<exec::Database> db_;
  io::SimIoBackend backend_;
  ssm::ScanSharingManager ssm_;
};

TEST_F(PrefetcherTest, PumpIssuesLeaderWindowAndAcquireHits) {
  auto started = ssm_.StartScan(FullScan(), 0);
  ASSERT_TRUE(started.ok());
  io::Prefetcher pf = MakePrefetcher(/*depth=*/3);
  const uint32_t page_size = backend_.page_size();
  std::vector<uint8_t> store(kExtent * page_size);
  for (uint64_t i = 0; i < kExtent; ++i) {
    auto image = db_->disk_manager()->PageData(i);
    ASSERT_TRUE(image.ok());
    std::memcpy(store.data() + i * page_size, image.value(), page_size);
  }

  pf.Pump(0);
  EXPECT_EQ(pf.ready_extents(), 3u);  // Extents 0, 16, 32 ahead of page 0.
  EXPECT_EQ(pf.stats().submitted, 3u);

  io::ExtentRead read = pf.Acquire(0, kExtent, 0);
  EXPECT_TRUE(read.charged);
  EXPECT_TRUE(read.from_queue);
  ASSERT_TRUE(read.bytes.ok()) << read.bytes.ToString();
  EXPECT_EQ(pf.stats().prefetch_hits, 1u);
  EXPECT_EQ(pf.ready_extents(), 2u);

  // The popped extent names the store's images: served in place, it owns
  // no buffer, and the pages a consumer reads for [first, first + count)
  // are the page store's bytes.
  EXPECT_EQ(read.first, 0u);
  EXPECT_EQ(read.count, kExtent);
  EXPECT_EQ(read.data, nullptr);
  for (uint64_t i = 0; i < read.count; ++i) {
    auto image = db_->disk_manager()->PageData(read.first + i);
    ASSERT_TRUE(image.ok());
    EXPECT_EQ(std::memcmp(image.value(), store.data() + i * page_size,
                          page_size),
              0)
        << "page " << read.first + i;
  }
  ASSERT_TRUE(ssm_.EndScan(started->id, 0).ok());
}

TEST_F(PrefetcherTest, RepeatPumpIsIdempotentWhileFrontierHolds) {
  auto started = ssm_.StartScan(FullScan(), 0);
  ASSERT_TRUE(started.ok());
  io::Prefetcher pf = MakePrefetcher(/*depth=*/3);
  pf.Pump(0);
  pf.Pump(100);
  pf.Pump(200);
  // The window did not move, so nothing new was issued or dropped.
  EXPECT_EQ(pf.stats().submitted, 3u);
  EXPECT_EQ(pf.stats().dropped_stale, 0u);
  EXPECT_EQ(pf.ready_extents(), 3u);
  ASSERT_TRUE(ssm_.EndScan(started->id, 0).ok());
}

TEST_F(PrefetcherTest, AcquireFallsBackToSyncOutsideWindow) {
  auto started = ssm_.StartScan(FullScan(), 0);
  ASSERT_TRUE(started.ok());
  io::Prefetcher pf = MakePrefetcher(/*depth=*/3);
  pf.Pump(0);

  io::ExtentRead read = pf.Acquire(128, kExtent, 0);  // Far from the window.
  EXPECT_TRUE(read.charged);
  EXPECT_FALSE(read.from_queue);
  ASSERT_TRUE(read.bytes.ok());
  EXPECT_EQ(pf.stats().sync_reads, 1u);
  EXPECT_EQ(pf.stats().prefetch_hits, 0u);
  ASSERT_TRUE(ssm_.EndScan(started->id, 0).ok());
}

TEST_F(PrefetcherTest, FrontierMoveDropsStaleAndNeverServesOldExtents) {
  auto started = ssm_.StartScan(FullScan(), 0);
  ASSERT_TRUE(started.ok());
  io::Prefetcher pf = MakePrefetcher(/*depth=*/3);
  pf.Pump(0);
  EXPECT_EQ(pf.ready_extents(), 3u);  // 0, 16, 32.

  // Regroup-style frontier move: the leader jumps to page 64 (e.g. after a
  // join/placement decision). The old window's reads are now stale.
  ASSERT_TRUE(ssm_.UpdateLocation(started->id, 64, 64, 1000).ok());
  pf.Pump(1000);
  EXPECT_EQ(pf.stats().dropped_stale, 3u);
  EXPECT_EQ(pf.stats().submitted, 6u);  // 3 old + 3 new (64, 80, 96).
  EXPECT_EQ(pf.ready_extents(), 3u);

  // A demand read at the OLD position must not see a stale ready extent —
  // dropped reads are gone for good (sync fallback instead).
  io::ExtentRead old_pos = pf.Acquire(0, kExtent, 1000);
  EXPECT_FALSE(old_pos.from_queue);
  // And the new window serves hits.
  io::ExtentRead new_pos = pf.Acquire(64, kExtent, 1000);
  EXPECT_TRUE(new_pos.from_queue);
  ASSERT_TRUE(new_pos.bytes.ok());
  ASSERT_TRUE(ssm_.EndScan(started->id, 1000).ok());
}

TEST_F(PrefetcherTest, ScanEndDropsWholeWindow) {
  auto started = ssm_.StartScan(FullScan(), 0);
  ASSERT_TRUE(started.ok());
  io::Prefetcher pf = MakePrefetcher(/*depth=*/4);
  pf.Pump(0);
  EXPECT_EQ(pf.ready_extents(), 4u);
  ASSERT_TRUE(ssm_.EndScan(started->id, 500).ok());
  pf.Pump(500);
  EXPECT_EQ(pf.ready_extents(), 0u);
  EXPECT_EQ(pf.stats().dropped_stale, 4u);
}

TEST_F(PrefetcherTest, QueueBoundForcesBackpressure) {
  auto started = ssm_.StartScan(FullScan(), 0);
  ASSERT_TRUE(started.ok());
  // Window wants 4 extents ahead but the ready queue only admits 2 — the
  // throttled-trailer shape, where the leader's window outruns the budget.
  io::Prefetcher pf = MakePrefetcher(/*depth=*/4, /*queue_bound=*/2);
  pf.Pump(0);
  EXPECT_EQ(pf.ready_extents(), 2u);
  EXPECT_EQ(pf.stats().submitted, 2u);
  EXPECT_GE(pf.stats().queue_full, 1u);

  // Draining the window frees budget for the next refill (refill
  // hysteresis: the pump waits for the low-water mark, then fills the
  // whole budget in one burst).
  io::ExtentRead a = pf.Acquire(0, kExtent, 0);
  EXPECT_TRUE(a.from_queue);
  io::ExtentRead b = pf.Acquire(kExtent, kExtent, 0);
  EXPECT_TRUE(b.from_queue);
  pf.Pump(100);
  EXPECT_EQ(pf.ready_extents(), 2u);
  EXPECT_EQ(pf.stats().submitted, 4u);
  ASSERT_TRUE(ssm_.EndScan(started->id, 100).ok());
}

TEST_F(PrefetcherTest, ConsumedExtentsAreNeverReissued) {
  auto started = ssm_.StartScan(FullScan(), 0);
  ASSERT_TRUE(started.ok());
  io::Prefetcher pf = MakePrefetcher(/*depth=*/4);
  pf.Pump(0);
  EXPECT_EQ(pf.stats().submitted, 4u);

  // The scan consumes three extents but reports no new position yet
  // (positions are reported at chunk start): the window still contains
  // them, and without the consumed history the pump would buy them all
  // back just to drop them at the next frontier move.
  EXPECT_TRUE(pf.Acquire(0, kExtent, 10).from_queue);
  EXPECT_TRUE(pf.Acquire(kExtent, kExtent, 20).from_queue);
  EXPECT_TRUE(pf.Acquire(2 * kExtent, kExtent, 30).from_queue);
  pf.Pump(40);
  EXPECT_EQ(pf.stats().submitted, 4u);  // Nothing re-bought.
  EXPECT_EQ(pf.stats().reissue_suppressed, 3u);
  EXPECT_EQ(pf.ready_extents(), 1u);
  ASSERT_TRUE(ssm_.EndScan(started->id, 100).ok());
}

TEST_F(PrefetcherTest, RefillHysteresisIssuesRunsNotSingles) {
  auto started = ssm_.StartScan(FullScan(), 0);
  ASSERT_TRUE(started.ok());
  io::Prefetcher pf = MakePrefetcher(/*depth=*/4);  // Low-water mark: 1.
  pf.Pump(0);
  EXPECT_EQ(pf.stats().submitted, 4u);  // Extents 0, 16, 32, 48.

  // Steady-state scan: consume an extent, report the next chunk's start,
  // pump — the slide-by-one cadence. The pump must NOT top up one extent
  // per step (that alternation is what costs a seek per extent in mixed
  // workloads); it waits for the low-water mark …
  EXPECT_TRUE(pf.Acquire(0, kExtent, 10).from_queue);
  ASSERT_TRUE(ssm_.UpdateLocation(started->id, kExtent, kExtent, 10).ok());
  pf.Pump(10);
  EXPECT_EQ(pf.stats().submitted, 4u);  // Ready 16|32|48: still draining.
  EXPECT_TRUE(pf.Acquire(kExtent, kExtent, 20).from_queue);
  ASSERT_TRUE(ssm_.UpdateLocation(started->id, 2 * kExtent, kExtent, 20).ok());
  pf.Pump(20);
  EXPECT_EQ(pf.stats().submitted, 4u);  // Ready 32|48: still draining.
  EXPECT_TRUE(pf.Acquire(2 * kExtent, kExtent, 30).from_queue);
  ASSERT_TRUE(ssm_.UpdateLocation(started->id, 3 * kExtent, kExtent, 30).ok());

  // … and then refills the whole window in one burst: extents 64, 80 and
  // 96 enter the disk queue back-to-back (a sequential run).
  pf.Pump(30);
  EXPECT_EQ(pf.stats().submitted, 7u);
  EXPECT_EQ(pf.ready_extents(), 4u);  // 48 + the new 64, 80, 96.
  ASSERT_TRUE(ssm_.EndScan(started->id, 100).ok());
}

// ---------------------------------------------------------------- engine

exec::RunConfig PushConfig(size_t frames, uint64_t depth) {
  exec::RunConfig config =
      testutil::MakeRunConfig(exec::ScanMode::kShared, frames, kExtent);
  config.io.prefetch_depth = depth;
  return config;
}

/// Same rows and groups; values equal to 4 ULPs, or to `rel_tol` when it
/// is nonzero.
void ExpectSameOutput(const exec::QueryOutput& a, const exec::QueryOutput& b,
                      double rel_tol = 0.0) {
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.rows_matched, b.rows_matched);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].key, b.groups[g].key);
    ASSERT_EQ(a.groups[g].values.size(), b.groups[g].values.size());
    for (size_t v = 0; v < a.groups[g].values.size(); ++v) {
      const double x = a.groups[g].values[v];
      const double y = b.groups[g].values[v];
      if (rel_tol == 0.0) {
        EXPECT_DOUBLE_EQ(x, y);
      } else {
        EXPECT_NEAR(x, y, rel_tol * std::max(std::abs(x), std::abs(y)));
      }
    }
  }
}

void ExpectSameOutputs(const exec::RunResult& a, const exec::RunResult& b) {
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (size_t s = 0; s < a.streams.size(); ++s) {
    ASSERT_EQ(a.streams[s].queries.size(), b.streams[s].queries.size());
    for (size_t q = 0; q < a.streams[s].queries.size(); ++q) {
      SCOPED_TRACE(testing::Message() << "s" << s << " q" << q);
      ExpectSameOutput(a.streams[s].queries[q].output,
                       b.streams[s].queries[q].output);
    }
  }
}

TEST(PushPipelineEngineTest, PushSimMatchesPullOutputsAndHitsQueue) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/3);
  const auto streams = testutil::StaggeredQ1Q6("lineitem", sim::Millis(50));
  const size_t frames = 4 * kExtent;

  auto pull = db->Run(PushConfig(frames, /*depth=*/0), streams);
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();
  EXPECT_EQ(pull->io.submitted, 0u);  // Depth 0: no pipeline at all.
  EXPECT_EQ(pull->buffer.prefetch_hits, 0u);

  auto push = db->Run(PushConfig(frames, /*depth=*/4), streams);
  ASSERT_TRUE(push.ok()) << push.status().ToString();

  ExpectSameOutputs(*pull, *push);
  // The push run actually pushed: extents were issued ahead and demand
  // misses consumed them from the ready queue.
  EXPECT_GT(push->io.submitted, 0u);
  EXPECT_GT(push->io.prefetch_hits, 0u);
  EXPECT_GT(push->buffer.prefetch_hits, 0u);
  // Every page the workload touches is still accounted once per logical
  // read; the pool identity survives the new miss path.
  EXPECT_EQ(pull->buffer.logical_reads, push->buffer.logical_reads);
  EXPECT_EQ(push->buffer.hits + push->buffer.misses,
            push->buffer.logical_reads);
}

TEST(PushPipelineEngineTest, PushSimIsBitReproducible) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/3);
  const auto streams = testutil::StaggeredQ1Q6("lineitem", sim::Millis(50));
  const exec::RunConfig config = PushConfig(4 * kExtent, /*depth=*/4);

  auto a = db->Run(config, streams);
  auto b = db->Run(config, streams);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::string diff;
  EXPECT_TRUE(metrics::BitIdentical(*a, *b, &diff)) << "first diff: " << diff;
}

/// Moves bytes the way the file backend does, copying them from the page
/// store, and records every extent buffer it is handed.
class RecordingCopyBackend final : public io::IoBackend {
 public:
  explicit RecordingCopyBackend(storage::DiskManager* disk) : disk_(disk) {}

  uint32_t page_size() const override { return disk_->page_size(); }
  const char* name() const override { return "recording_copy"; }
  StatusOr<sim::IoResult> Charge(sim::PageId first, uint64_t count,
                                 sim::Micros now) override {
    return disk_->ChargedRead(first, count, now);
  }
  Status StartBytes(sim::PageId first, uint64_t count, uint8_t* dest,
                    io::ReadToken* token) override {
    for (uint64_t i = 0; i < count; ++i) {
      SCANSHARE_ASSIGN_OR_RETURN(const uint8_t* image,
                                 disk_->PageData(first + i));
      std::memcpy(dest + i * page_size(), image, page_size());
    }
    buffers_.insert(dest);
    ++reads_;
    *token = io::kNoToken;
    return Status::OK();
  }
  Status Join(io::ReadToken) override { return Status::OK(); }

  size_t buffers() const { return buffers_.size(); }
  uint64_t reads() const { return reads_; }

 private:
  storage::DiskManager* disk_;
  std::set<const uint8_t*> buffers_;
  uint64_t reads_ = 0;
};

TEST(PushPipelineEngineTest, ByteMovingReadsReuseTheirExtentBuffers) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/3);
  db->env()->clock().Reset();
  db->env()->disk().Reset();
  constexpr uint64_t kDepth = 4;
  const exec::RunConfig config = PushConfig(4 * kExtent, kDepth);
  buffer::BufferPool pool(
      db->disk_manager(),
      std::make_unique<buffer::PriorityLruReplacer>(config.buffer.num_frames),
      config.buffer);
  ssm::ScanSharingManager ssm(SsmOpts(), nullptr, nullptr);
  ssm::IndexScanSharingManager ism(ssm::IsmOptions{});
  RecordingCopyBackend backend(db->disk_manager());
  io::PrefetchOptions prefetch;
  prefetch.depth = kDepth;
  io::Prefetcher prefetcher(&backend, &ssm, &pool, kExtent, prefetch);
  pool.SetIoPipeline(&prefetcher);
  exec::StreamExecutor executor(db->env(), &pool, db->catalog(), &ssm, &ism,
                                config.cost, exec::ScanMode::kShared);
  executor.SetIoPipeline(&prefetcher);

  // Back-to-back scans of one stream: one scan at a time is one group, and
  // its window holds at most kDepth ready extents.
  exec::StreamSpec stream;
  stream.queries = {workload::MakeQ1Like("lineitem"),
                    workload::MakeQ6Like("lineitem"),
                    workload::MakeQ1Like("lineitem")};
  auto run = executor.Run({stream});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(backend.reads(), 8 * (kDepth + 1));
  EXPECT_GT(run->io.prefetch_hits, 0u);
  // Every buffer the reads used was live at once: the ready extents plus
  // the one a demand read fills. The allocation count is the sharper
  // check: an allocator may hand a freed buffer's address straight back,
  // so distinct pointers alone cannot see buffers freed and reallocated.
  EXPECT_LE(backend.buffers(), kDepth + 1);
  EXPECT_LE(prefetcher.buffers_allocated(), kDepth + 1);
}

TEST(PushPipelineEngineTest, DiskFaultParityWithPullPath) {
  // A range fault fails whatever read first touches it. The pull path
  // fails at the demand charge; the push path parks the pump-time failure
  // and surfaces it at the demanding Acquire — the scan must see the same
  // status either way.
  auto db = testutil::MakeLineitemDb(kTablePages, /*seed=*/5);
  const auto streams = testutil::StaggeredQ1Q6("lineitem", sim::Millis(50));

  sim::DiskFaultOptions faults;
  faults.fail_range_first = 96;
  faults.fail_range_end = 97;
  db->env()->disk().SetFaults(faults);

  auto pull = db->Run(PushConfig(4 * kExtent, /*depth=*/0), streams);
  ASSERT_FALSE(pull.ok());

  db->env()->disk().SetFaults(faults);  // Re-arm (counts restart).
  auto push = db->Run(PushConfig(4 * kExtent, /*depth=*/4), streams);
  ASSERT_FALSE(push.ok());

  EXPECT_EQ(pull.status().code(), push.status().code());
  db->env()->disk().SetFaults(sim::DiskFaultOptions{});
}

TEST(PushPipelineEngineTest, MediaFaultParityWithPullPath) {
  // Post-charge media faults (PageData corruption) surface at StartBytes
  // in the push path and at InstallInto's copy in the pull path — same
  // Corruption status from Run either way.
  auto db = testutil::MakeLineitemDb(kTablePages, /*seed=*/5);
  const auto streams = testutil::StaggeredQ1Q6("lineitem", sim::Millis(50));

  db->disk_manager()->SetPageDataFaultRange(96, 97);
  auto pull = db->Run(PushConfig(4 * kExtent, /*depth=*/0), streams);
  ASSERT_FALSE(pull.ok());
  EXPECT_EQ(pull.status().code(), Status::Code::kCorruption);

  auto push = db->Run(PushConfig(4 * kExtent, /*depth=*/4), streams);
  ASSERT_FALSE(push.ok());
  EXPECT_EQ(push.status().code(), Status::Code::kCorruption);
  db->disk_manager()->ClearPageDataFaults();
}

TEST(PushPipelineEngineTest, PushEmitsIoTraceEvents) {
  exec::Database* db = testutil::SharedLineitemDb(kTablePages, /*seed=*/3);
  const auto streams = testutil::StaggeredQ1Q6("lineitem", sim::Millis(50));
  exec::RunConfig config = PushConfig(4 * kExtent, /*depth=*/4);
  config.trace.enabled = true;

  auto run = db->Run(config, streams);
  ASSERT_TRUE(run.ok());
  ASSERT_NE(run->trace, nullptr);
  uint64_t submits = 0;
  uint64_t completes = 0;
  uint64_t hits = 0;
  for (const obs::TraceEvent& e : run->trace->events()) {
    if (e.kind == obs::EventKind::kIoSubmit) ++submits;
    if (e.kind == obs::EventKind::kIoComplete) ++completes;
    if (e.kind == obs::EventKind::kIoPrefetchHit) ++hits;
  }
  EXPECT_EQ(submits, run->io.submitted);
  EXPECT_EQ(hits, run->io.prefetch_hits);
  // Every successfully charged submit gets a completion event.
  EXPECT_LE(completes, submits);
  EXPECT_GT(completes, 0u);
}

// Every io.* and real_io.* counter reaches the metrics registry: nonzero
// where a push-file run exercised it, zero on a pull run.
TEST(PushPipelineEngineTest, PipelineCountersReachTheRegistry) {
  auto db = testutil::MakeLineitemDb(kTablePages, /*seed=*/3);
  const auto streams = testutil::StaggeredQ1Q6("lineitem", sim::Millis(50));
  const std::string path = testing::TempDir() + "/io_pipeline_metrics.tbl";
  ASSERT_TRUE(io::FileIoBackend::WriteTableFile(*db->disk_manager(), path).ok());

  exec::RunConfig push = PushConfig(4 * kExtent, /*depth=*/4);
  push.io.backend = exec::IoOptions::Backend::kFile;
  push.io.file_path = path;
  auto pushed = db->Run(push, streams);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  auto pulled = db->Run(PushConfig(4 * kExtent, /*depth=*/0), streams);
  ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();

  const auto find = [](const std::vector<obs::MetricSample>& samples,
                       const std::string& name) -> const obs::MetricSample* {
    for (const obs::MetricSample& s : samples) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const auto push_metrics = metrics::CollectRunMetrics(*pushed);
  const auto pull_metrics = metrics::CollectRunMetrics(*pulled);
  for (const char* name :
       {"io.submitted", "io.prefetch_hits", "io.sync_reads", "io.queue_full",
        "io.dropped_stale", "io.reissue_suppressed", "real_io.reads",
        "real_io.pages_read", "real_io.bytes_read", "real_io.seeks"}) {
    const obs::MetricSample* pushed_sample = find(push_metrics, name);
    const obs::MetricSample* pulled_sample = find(pull_metrics, name);
    ASSERT_NE(pushed_sample, nullptr) << name;
    ASSERT_NE(pulled_sample, nullptr) << name;
    EXPECT_EQ(pulled_sample->counter, 0u) << name;
  }
  EXPECT_EQ(find(push_metrics, "io.submitted")->counter, pushed->io.submitted);
  EXPECT_GT(pushed->io.submitted, 0u);
  EXPECT_GT(find(push_metrics, "io.prefetch_hits")->counter, 0u);
  EXPECT_GT(find(push_metrics, "io.sync_reads")->counter, 0u);
  EXPECT_EQ(find(push_metrics, "real_io.reads")->counter, pushed->disk.requests);
  EXPECT_GT(find(push_metrics, "real_io.pages_read")->counter, 0u);
  EXPECT_GT(find(push_metrics, "real_io.bytes_read")->counter, 0u);
  EXPECT_GT(find(push_metrics, "real_io.seeks")->counter, 0u);
}

// ---------------------------------------------------------------- service

/// An open-loop fixed-rate schedule whose caps are high enough that no job
/// queues or sheds: every job runs from its arrival.
service::ServiceOptions RoomyService(uint64_t depth) {
  service::ServiceOptions o;
  o.workload.num_tables = 3;
  o.workload.mdc_every = 2;  // Table 0 carries a block index (X1/X2).
  o.workload.pages_per_table = 96;
  o.workload.seed = 31;
  o.arrival.kind = service::ArrivalKind::kFixedRate;
  o.arrival.seed = 7;
  o.arrival.num_jobs = 30;
  o.arrival.rate_per_sec = 150.0;
  o.admission.global_cap = 1000;
  o.admission.per_table_cap = 1000;
  o.admission.queue_bound = 1000;
  o.run = PushConfig(4 * kExtent, depth);
  return o;
}

class ServicePushPipelineTest : public ::testing::Test {
 protected:
  ServicePushPipelineTest() : db_(std::make_unique<exec::Database>()) {
    auto tables =
        service::BuildServiceTables(db_->catalog(), RoomyService(0).workload);
    EXPECT_TRUE(tables.ok()) << tables.status().ToString();
    if (tables.ok()) tables_ = *std::move(tables);
  }

  StatusOr<service::ServiceResult> Run(const service::ServiceOptions& o) {
    service::ScanService svc(db_.get());
    return svc.Run(o, tables_);
  }

  std::unique_ptr<exec::Database> db_;
  std::vector<service::ServiceTable> tables_;
};

TEST_F(ServicePushPipelineTest, PushMatchesPullOutputsAndPushes) {
  auto pull = Run(RoomyService(/*depth=*/0));
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();
  auto push = Run(RoomyService(/*depth=*/8));
  ASSERT_TRUE(push.ok()) << push.status().ToString();

  // Nothing queued or shed, so both runs complete every job. Push changes
  // timing, so a shared scan may join its group at a different page and
  // sum its tuples in a different order: values agree to rounding.
  EXPECT_EQ(pull->admission.queued + pull->admission.shed, 0u);
  EXPECT_EQ(push->admission.queued + push->admission.shed, 0u);
  ASSERT_EQ(pull->jobs.size(), push->jobs.size());
  for (size_t j = 0; j < pull->jobs.size(); ++j) {
    EXPECT_EQ(pull->jobs[j].query, push->jobs[j].query) << "job " << j;
    SCOPED_TRACE(testing::Message() << "job " << j);
    ExpectSameOutput(pull->jobs[j].output, push->jobs[j].output, 1e-12);
  }
  EXPECT_GT(push->ssm.scans_joined, 0u);  // Jobs really shared scans.
  EXPECT_EQ(pull->io.submitted, 0u);
  EXPECT_GT(push->io.submitted, 0u);
  EXPECT_GT(push->io.prefetch_hits, 0u);

  // The registry sees the service's pipeline counters too.
  bool saw_submitted = false;
  for (const obs::MetricSample& s : service::CollectServiceMetrics(*push)) {
    if (s.name != "io.submitted") continue;
    saw_submitted = true;
    EXPECT_EQ(s.counter, push->io.submitted);
  }
  EXPECT_TRUE(saw_submitted);
}

TEST_F(ServicePushPipelineTest, PushFileMatchesPushSim) {
  auto sim_run = Run(RoomyService(/*depth=*/8));
  ASSERT_TRUE(sim_run.ok()) << sim_run.status().ToString();

  const std::string path = testing::TempDir() + "/service_push_file.tbl";
  ASSERT_TRUE(io::FileIoBackend::WriteTableFile(*db_->disk_manager(), path).ok());
  service::ServiceOptions file = RoomyService(/*depth=*/8);
  file.run.io.backend = exec::IoOptions::Backend::kFile;
  file.run.io.file_path = path;
  auto file_run = Run(file);
  ASSERT_TRUE(file_run.ok()) << file_run.status().ToString();

  EXPECT_EQ(file_run->makespan, sim_run->makespan);
  EXPECT_EQ(file_run->disk.pages_read, sim_run->disk.pages_read);
  EXPECT_EQ(file_run->disk.seeks, sim_run->disk.seeks);
  EXPECT_EQ(file_run->io.submitted, sim_run->io.submitted);
  EXPECT_EQ(file_run->real_io.reads, file_run->disk.requests);
  EXPECT_EQ(file_run->real_io.pages_read, file_run->disk.pages_read);
  EXPECT_EQ(sim_run->real_io.reads, 0u);
}

TEST_F(ServicePushPipelineTest, DiskFaultParityWithPullPath) {
  sim::DiskFaultOptions faults;
  faults.fail_range_first = 40;
  faults.fail_range_end = 41;
  db_->env()->disk().SetFaults(faults);
  auto pull = Run(RoomyService(/*depth=*/0));
  ASSERT_FALSE(pull.ok());

  db_->env()->disk().SetFaults(faults);  // Re-arm (counts restart).
  auto push = Run(RoomyService(/*depth=*/8));
  ASSERT_FALSE(push.ok());
  EXPECT_EQ(pull.status().code(), push.status().code());
  db_->env()->disk().SetFaults(sim::DiskFaultOptions{});
}

}  // namespace
}  // namespace scanshare
