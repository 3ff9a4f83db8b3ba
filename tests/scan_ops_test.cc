#include "exec/scan_ops.h"

#include <gtest/gtest.h>

#include "buffer/buffer_pool.h"
#include "exec/engine.h"
#include "storage/catalog.h"
#include "workload/mdc_gen.h"
#include "workload/queries.h"

namespace scanshare::exec {
namespace {

using storage::Column;
using storage::Schema;
using storage::Value;

// A small table with verifiable content: v = row index, flag alternates.
class ScanOpsTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 20000;

  ScanOpsTest() : dm_(&env_), catalog_(&dm_) {
    Schema schema({Column::Double("v"), Column::Char("flag", 1)});
    auto builder = catalog_.NewTableBuilder("t", schema);
    EXPECT_TRUE(builder.ok());
    for (int i = 0; i < kRows; ++i) {
      EXPECT_TRUE((*builder)
                      ->Add({Value::Double(static_cast<double>(i)),
                             Value::Char(i % 2 == 0 ? "E" : "O")})
                      .ok());
    }
    auto info = (*builder)->Finish();
    EXPECT_TRUE(info.ok());
    table_ = *info;

    buffer::BufferPoolOptions bp;
    bp.num_frames = 64;
    bp.prefetch_extent_pages = 4;
    pool_ = std::make_unique<buffer::BufferPool>(
        &dm_, std::make_unique<buffer::PriorityLruReplacer>(bp.num_frames), bp);

    ssm::SsmOptions so;
    so.bufferpool_pages = bp.num_frames;
    so.prefetch_extent_pages = bp.prefetch_extent_pages;
    ssm_ = std::make_unique<ssm::ScanSharingManager>(so);
  }

  ScanEnv Env(bool shared) {
    ScanEnv e;
    e.pool = pool_.get();
    e.table = &table_;
    e.cost = &cost_;
    e.disk_options = &env_.disk().options();
    e.ssm = shared ? ssm_.get() : nullptr;
    return e;
  }

  QuerySpec SumQuery() {
    QuerySpec q;
    q.name = "sum";
    q.table = "t";
    q.aggs.push_back(AggSpec{"sum_v", AggOp::kSum, Expr::Column("v")});
    q.aggs.push_back(AggSpec{"cnt", AggOp::kCount, Expr::Const(0)});
    return q;
  }

  // Runs a cursor to completion, returning its output.
  QueryOutput Drive(ScanCursor* cursor, sim::Micros start = 0) {
    EXPECT_TRUE(cursor->Open(start).ok());
    sim::Micros now = start;
    bool done = false;
    while (!done) {
      auto elapsed = cursor->Step(now, &done);
      EXPECT_TRUE(elapsed.ok()) << elapsed.status().ToString();
      now += *elapsed;
    }
    auto out = cursor->Close(now);
    EXPECT_TRUE(out.ok());
    return *out;
  }

  static double ExpectedSum() {
    return static_cast<double>(kRows) * (kRows - 1) / 2.0;
  }

  sim::Env env_;
  storage::DiskManager dm_;
  storage::Catalog catalog_;
  storage::TableInfo table_;
  CostModel cost_;
  std::unique_ptr<buffer::BufferPool> pool_;
  std::unique_ptr<ssm::ScanSharingManager> ssm_;
};

TEST_F(ScanOpsTest, BaselineScanComputesCorrectAggregate) {
  auto cursor = MakeTableScan(Env(false), SumQuery());
  QueryOutput out = Drive(cursor.get());
  ASSERT_EQ(out.groups.size(), 1u);
  EXPECT_DOUBLE_EQ(out.groups[0].values[0], ExpectedSum());
  EXPECT_DOUBLE_EQ(out.groups[0].values[1], kRows);
  EXPECT_EQ(out.rows_scanned, static_cast<uint64_t>(kRows));
}

TEST_F(ScanOpsTest, BaselineScanVisitsEveryPageOnce) {
  auto cursor = MakeTableScan(Env(false), SumQuery());
  Drive(cursor.get());
  EXPECT_EQ(cursor->metrics().pages_scanned, table_.num_pages);
  EXPECT_EQ(cursor->metrics().tuples_scanned, static_cast<uint64_t>(kRows));
}

TEST_F(ScanOpsTest, SharedScanAloneSameResult) {
  auto cursor = MakeTableScan(Env(true), SumQuery());
  QueryOutput out = Drive(cursor.get());
  EXPECT_DOUBLE_EQ(out.groups[0].values[0], ExpectedSum());
  EXPECT_EQ(cursor->metrics().pages_scanned, table_.num_pages);
  // The SSM must be clean afterwards.
  EXPECT_EQ(ssm_->ActiveScanCount(), 0u);
  EXPECT_EQ(ssm_->stats().scans_started, 1u);
  EXPECT_EQ(ssm_->stats().scans_ended, 1u);
}

TEST_F(ScanOpsTest, SharedScanWrapAroundCoversWholeRange) {
  // Prime the SSM: a fake ongoing scan in the middle of the table makes
  // the next shared scan start there and wrap.
  ssm::ScanDescriptor d;
  d.table_id = table_.id;
  d.table_first = table_.first_page;
  d.table_end = table_.end_page();
  d.range_first = table_.first_page;
  d.range_end = table_.end_page();
  d.estimated_pages = table_.num_pages;
  d.estimated_duration = sim::Seconds(10);
  auto decoy = ssm_->StartScan(d, 0);
  ASSERT_TRUE(decoy.ok());
  const sim::PageId mid = table_.first_page + table_.num_pages / 2;
  ASSERT_TRUE(
      ssm_->UpdateLocation(decoy->id, mid, table_.num_pages / 2, 1000).ok());

  auto cursor = MakeTableScan(Env(true), SumQuery());
  QueryOutput out = Drive(cursor.get(), 2000);
  // Despite starting mid-table, the wrap-around covers every tuple exactly
  // once: the aggregate is identical.
  EXPECT_DOUBLE_EQ(out.groups[0].values[0], ExpectedSum());
  EXPECT_DOUBLE_EQ(out.groups[0].values[1], kRows);
  EXPECT_EQ(cursor->metrics().pages_scanned, table_.num_pages);
  ASSERT_TRUE(ssm_->EndScan(decoy->id, sim::Seconds(100)).ok());
}

TEST_F(ScanOpsTest, PredicateFiltersRows) {
  QuerySpec q = SumQuery();
  q.predicate.And("flag", CompareOp::kEq, Value::Char("E"));
  auto cursor = MakeTableScan(Env(false), q);
  QueryOutput out = Drive(cursor.get());
  EXPECT_DOUBLE_EQ(out.groups[0].values[1], kRows / 2);
  EXPECT_EQ(cursor->metrics().tuples_matched, static_cast<uint64_t>(kRows / 2));
  EXPECT_EQ(cursor->metrics().tuples_scanned, static_cast<uint64_t>(kRows));
}

TEST_F(ScanOpsTest, RangeScanCoversOnlyItsFraction) {
  QuerySpec q = SumQuery();
  q.range_start_frac = 0.5;
  q.range_end_frac = 1.0;
  auto cursor = MakeTableScan(Env(false), q);
  QueryOutput out = Drive(cursor.get());
  // Roughly half the rows, and they are the larger half (rows are loaded
  // in order), so the average value must exceed the global average.
  const double count = out.groups[0].values[1];
  EXPECT_NEAR(count, kRows / 2.0, kRows * 0.05);
  const double avg = out.groups[0].values[0] / count;
  EXPECT_GT(avg, static_cast<double>(kRows) * 0.7);
  EXPECT_LE(cursor->metrics().pages_scanned, table_.num_pages / 2 + 1);
}

TEST_F(ScanOpsTest, StepReportsProgressAndCost) {
  auto cursor = MakeTableScan(Env(false), SumQuery());
  ASSERT_TRUE(cursor->Open(0).ok());
  bool done = false;
  auto elapsed = cursor->Step(0, &done);
  ASSERT_TRUE(elapsed.ok());
  EXPECT_GT(*elapsed, 0u);
  EXPECT_FALSE(done);
  EXPECT_EQ(cursor->metrics().pages_scanned, 4u);  // One extent.
}

TEST_F(ScanOpsTest, LifecycleErrors) {
  auto cursor = MakeTableScan(Env(false), SumQuery());
  bool done = false;
  // Step before Open.
  EXPECT_FALSE(cursor->Step(0, &done).ok());
  ASSERT_TRUE(cursor->Open(0).ok());
  EXPECT_FALSE(cursor->Open(0).ok());  // Double open.
  EXPECT_FALSE(cursor->Close(0).ok()); // Close before done.
  while (!done) {
    ASSERT_TRUE(cursor->Step(0, &done).ok());
  }
  ASSERT_TRUE(cursor->Close(0).ok());
  EXPECT_FALSE(cursor->Close(0).ok());  // Double close.
}

// Where each operator ends. The executor samples position() after every
// step into QueryRecord::trace, so metrics::BitIdentical compares these
// end points: a baseline scan ends where its walk stops, a sharing scan
// wraps and ends where it started, even when that is the range begin.
TEST(ScanEndPositionTest, EachAccessPathAndRoleEndsWhereItsWalkDoes) {
  Database db;
  workload::MdcOptions mdc;
  mdc.block_pages = 4;
  mdc.num_regions = 2;
  mdc.days_per_key = 365;  // 7 keys.
  auto info = workload::GenerateMdcLineitem(db.catalog(), "mdc", 20000, 7, mdc);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto index = db.catalog()->GetBlockIndex("mdc");
  ASSERT_TRUE(index.ok());

  StreamSpec table_stream;
  table_stream.queries.push_back(
      workload::MakeRangeScan("mdc", 0.25, 0.75, "range"));
  StreamSpec index_stream;
  index_stream.queries.push_back(workload::MakeIndexCount("mdc", 1, 4));

  sim::PageId range_first = 0;
  sim::PageId range_end = 0;
  ResolveScanRange(*info, table_stream.queries[0], mdc.block_pages,
                   &range_first, &range_end);
  ASSERT_GT(range_first, info->first_page);
  ASSERT_LT(range_end, info->end_page());
  const std::vector<storage::BlockId> blocks = (*index)->BlockSequence(1, 4);
  ASSERT_GE(blocks.size(), 2u);
  auto block_page = [&](storage::BlockId bid) {
    return info->first_page +
           static_cast<sim::PageId>(bid) * (*index)->block_pages();
  };

  auto end_positions = [&](ScanMode mode) {
    RunConfig config;
    config.mode = mode;
    config.buffer.num_frames = 24;
    config.buffer.prefetch_extent_pages = mdc.block_pages;
    config.record_traces = true;
    auto run = db.Run(config, {table_stream, index_stream});
    std::vector<sim::PageId> ends;
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    if (!run.ok()) return ends;
    for (const StreamRecord& stream : run->streams) {
      const std::vector<LocationSample>& trace = stream.queries[0].trace;
      EXPECT_FALSE(trace.empty());
      if (!trace.empty()) ends.push_back(trace.back().position);
    }
    return ends;
  };

  const std::vector<sim::PageId> baseline = end_positions(ScanMode::kBaseline);
  ASSERT_EQ(baseline.size(), 2u);
  EXPECT_EQ(baseline[0], range_end);                  // Table, no SSM.
  EXPECT_EQ(baseline[1], block_page(blocks.back()));  // Index, no ISM.

  const std::vector<sim::PageId> shared = end_positions(ScanMode::kShared);
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_EQ(shared[0], range_first);                 // Table, SSM.
  EXPECT_EQ(shared[1], block_page(blocks.front()));  // Index, ISM.
}

TEST_F(ScanOpsTest, MetricsSplitIoAndCpu) {
  // A count-only query is cheap per tuple, so cold-cache I/O cannot be
  // fully overlapped and must show up as stall time.
  QuerySpec q;
  q.name = "cnt";
  q.table = "t";
  q.aggs.push_back(AggSpec{"cnt", AggOp::kCount, Expr::Const(0)});
  auto cursor = MakeTableScan(Env(false), q);
  Drive(cursor.get());
  const ScanMetrics& m = cursor->metrics();
  EXPECT_GT(m.cpu, 0u);
  EXPECT_GT(m.io_stall, 0u);  // Cold cache: transfer dominates this query.
  EXPECT_GT(m.overhead, 0u);
  EXPECT_GE(m.end_time, m.start_time);
  EXPECT_EQ(m.buffer_hits + m.buffer_misses, table_.num_pages);
}

TEST(ResolveScanRangeTest, FullRange) {
  storage::TableInfo t;
  t.first_page = 100;
  t.num_pages = 64;
  QuerySpec q;
  sim::PageId first, end;
  ResolveScanRange(t, q, 16, &first, &end);
  EXPECT_EQ(first, 100u);
  EXPECT_EQ(end, 164u);
}

TEST(ResolveScanRangeTest, FractionSnapsToExtentGrid) {
  storage::TableInfo t;
  t.first_page = 0;
  t.num_pages = 100;
  QuerySpec q;
  q.range_start_frac = 0.3;  // 30 -> snapped down to 16.
  q.range_end_frac = 0.71;   // 71 -> ceil -> snapped up to 80.
  sim::PageId first, end;
  ResolveScanRange(t, q, 16, &first, &end);
  EXPECT_EQ(first, 16u);
  EXPECT_EQ(end, 80u);
}

TEST(ResolveScanRangeTest, NeverEmpty) {
  storage::TableInfo t;
  t.first_page = 0;
  t.num_pages = 10;
  QuerySpec q;
  q.range_start_frac = 0.99;
  q.range_end_frac = 0.99;
  sim::PageId first, end;
  ResolveScanRange(t, q, 16, &first, &end);
  EXPECT_LT(first, end);
  EXPECT_LE(end, 10u);
}

TEST(EstimateScanDurationTest, PositiveAndMonotonic) {
  storage::TableInfo t;
  t.first_page = 0;
  t.num_pages = 100;
  t.num_tuples = 40000;
  QuerySpec q;
  CostModel cost;
  sim::DiskOptions dopts;
  const sim::Micros d100 = EstimateScanDuration(t, q, cost, dopts, 100);
  const sim::Micros d200 = EstimateScanDuration(t, q, cost, dopts, 200);
  EXPECT_GT(d100, 0u);
  EXPECT_GT(d200, d100);
}

TEST(EstimateScanDurationTest, CpuHeavyQueriesEstimateSlower) {
  storage::TableInfo t;
  t.first_page = 0;
  t.num_pages = 100;
  t.num_tuples = 40000;
  QuerySpec cheap;
  QuerySpec heavy;
  heavy.per_tuple_extra_ns = 5000;
  CostModel cost;
  sim::DiskOptions dopts;
  EXPECT_GT(EstimateScanDuration(t, heavy, cost, dopts, 100),
            EstimateScanDuration(t, cheap, cost, dopts, 100));
}

}  // namespace
}  // namespace scanshare::exec
