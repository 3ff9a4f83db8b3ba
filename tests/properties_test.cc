// Parameterized property sweeps: invariants that must hold across stream
// counts, buffer sizes, and workload mixes.

#include <gtest/gtest.h>

#include "exec/engine.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare {
namespace {

using exec::Database;
using exec::RunConfig;
using exec::ScanMode;
using exec::StreamSpec;

Database* SharedDb() { return testutil::SharedLineitemDb(128, 777); }

struct SweepParam {
  size_t streams;
  size_t frames;
  const char* label;
};

void PrintTo(const SweepParam& p, std::ostream* os) { *os << p.label; }

class ConcurrencySweepTest : public ::testing::TestWithParam<SweepParam> {};

// Invariant 1: scan sharing never reads more pages from disk than the
// baseline for identical concurrent scans.
TEST_P(ConcurrencySweepTest, SharedNeverReadsMoreThanBaseline) {
  const SweepParam p = GetParam();
  StreamSpec s;
  s.queries.push_back(workload::MakeQ6Like("lineitem"));
  std::vector<StreamSpec> streams(p.streams, s);

  RunConfig c;
  c.buffer.num_frames = p.frames;
  c.mode = ScanMode::kBaseline;
  auto base = SharedDb()->Run(c, streams);
  ASSERT_TRUE(base.ok());
  c.mode = ScanMode::kShared;
  auto shared = SharedDb()->Run(c, streams);
  ASSERT_TRUE(shared.ok());

  EXPECT_LE(shared->disk.pages_read, base->disk.pages_read * 102 / 100);
}

// Invariant 2: every query scans exactly its full tuple set regardless of
// mode, stream count, or buffer size.
TEST_P(ConcurrencySweepTest, EveryScanCoversAllTuples) {
  const SweepParam p = GetParam();
  StreamSpec s;
  s.queries.push_back(workload::MakeQ6Like("lineitem"));
  std::vector<StreamSpec> streams(p.streams, s);

  RunConfig c;
  c.buffer.num_frames = p.frames;
  c.mode = ScanMode::kShared;
  auto run = SharedDb()->Run(c, streams);
  ASSERT_TRUE(run.ok());

  auto table = SharedDb()->catalog()->GetTable("lineitem");
  for (const auto& stream : run->streams) {
    for (const auto& q : stream.queries) {
      EXPECT_EQ(q.metrics.tuples_scanned, (*table)->num_tuples);
      EXPECT_EQ(q.metrics.pages_scanned, (*table)->num_pages);
    }
  }
}

// Invariant 3: buffer accounting. Hits + misses = logical reads, and
// physical pages transferred are bounded below by misses.
TEST_P(ConcurrencySweepTest, BufferAccountingConsistent) {
  const SweepParam p = GetParam();
  StreamSpec s;
  s.queries.push_back(workload::MakeQ6Like("lineitem"));
  std::vector<StreamSpec> streams(p.streams, s);

  RunConfig c;
  c.buffer.num_frames = p.frames;
  c.mode = ScanMode::kShared;
  auto run = SharedDb()->Run(c, streams);
  ASSERT_TRUE(run.ok());

  EXPECT_EQ(run->buffer.hits + run->buffer.misses, run->buffer.logical_reads);
  EXPECT_GE(run->buffer.physical_pages, run->buffer.misses);
  EXPECT_EQ(run->disk.pages_read, run->buffer.physical_pages);
}

// Invariant 4: virtual time sanity — makespan at least as long as the
// longest stream, every query interval well-formed, CPU+IO+overhead fits
// inside the query's elapsed interval.
TEST_P(ConcurrencySweepTest, TimeAccountingConsistent) {
  const SweepParam p = GetParam();
  StreamSpec s;
  s.queries.push_back(workload::MakeQ1Like("lineitem"));
  std::vector<StreamSpec> streams(p.streams, s);

  RunConfig c;
  c.buffer.num_frames = p.frames;
  c.mode = ScanMode::kShared;
  auto run = SharedDb()->Run(c, streams);
  ASSERT_TRUE(run.ok());

  for (const auto& stream : run->streams) {
    EXPECT_LE(stream.end, run->makespan);
    for (const auto& q : stream.queries) {
      EXPECT_LE(q.metrics.start_time, q.metrics.end_time);
      const sim::Micros attributed =
          q.metrics.cpu + q.metrics.io_stall + q.metrics.overhead +
          q.metrics.throttle_wait;
      EXPECT_LE(attributed, q.metrics.Elapsed() + 16)  // Rounding slack.
          << "attributed time exceeds elapsed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConcurrencySweepTest,
    ::testing::Values(SweepParam{1, 16, "s1_f16"}, SweepParam{2, 16, "s2_f16"},
                      SweepParam{2, 64, "s2_f64"}, SweepParam{3, 16, "s3_f16"},
                      SweepParam{3, 64, "s3_f64"}, SweepParam{5, 32, "s5_f32"},
                      SweepParam{5, 160, "s5_f160"}),
    [](const auto& tpi) { return tpi.param.label; });

// Fairness-cap sweep: the accumulated throttle wait of any scan must stay
// within cap * estimated duration (plus one quantum of slack).
class FairnessCapSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(FairnessCapSweepTest, AccumulatedWaitBounded) {
  const double cap = GetParam();
  std::vector<StreamSpec> streams(2);
  streams[0].queries.push_back(workload::MakeQ6Like("lineitem"));  // Fast.
  streams[1].queries.push_back(workload::MakeQ1Like("lineitem"));  // Slow.

  RunConfig c;
  c.mode = ScanMode::kShared;
  c.buffer.num_frames = 32;
  c.ssm.fairness_cap = cap;
  auto run = SharedDb()->Run(c, streams);
  ASSERT_TRUE(run.ok());

  for (const auto& stream : run->streams) {
    for (const auto& q : stream.queries) {
      // The wait can overshoot the cap by at most one inserted wait
      // (the cap is checked after granting), which is itself bounded.
      const double bound =
          cap * static_cast<double>(q.metrics.Elapsed()) +
          static_cast<double>(c.ssm.max_wait_per_update);
      EXPECT_LE(static_cast<double>(q.metrics.throttle_wait), bound + 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, FairnessCapSweepTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0),
                         [](const auto& tpi) {
                           // Built with += (not operator+) to sidestep a GCC 12
                           // -Wrestrict false positive on inlined string concat.
                           std::string name = "cap";
                           name += std::to_string(static_cast<int>(tpi.param * 100));
                           return name;
                         });

// Extent sweep: prefetch unit must not affect query results, only costs.
class ExtentSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtentSweepTest, ResultsIndependentOfExtent) {
  StreamSpec s;
  s.queries.push_back(workload::MakeQ6Like("lineitem"));

  RunConfig c;
  c.mode = ScanMode::kShared;
  c.buffer.num_frames = 64;
  c.buffer.prefetch_extent_pages = GetParam();
  auto run = SharedDb()->Run(c, {s});
  ASSERT_TRUE(run.ok());

  RunConfig ref = c;
  ref.buffer.prefetch_extent_pages = 16;
  auto reference = SharedDb()->Run(ref, {s});
  ASSERT_TRUE(reference.ok());

  const auto& a = run->streams[0].queries[0].output;
  const auto& b = reference->streams[0].queries[0].output;
  ASSERT_EQ(a.groups.size(), b.groups.size());
  EXPECT_NEAR(a.groups[0].values[0], b.groups[0].values[0],
              std::abs(b.groups[0].values[0]) * 1e-9);
  EXPECT_EQ(a.rows_matched, b.rows_matched);
}

INSTANTIATE_TEST_SUITE_P(Extents, ExtentSweepTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32),
                         [](const auto& tpi) {
                           std::string name = "e";
                           name += std::to_string(tpi.param);
                           return name;
                         });

}  // namespace
}  // namespace scanshare
