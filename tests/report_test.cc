#include "metrics/report.h"

#include <gtest/gtest.h>

namespace scanshare::metrics {
namespace {

exec::QueryRecord MakeQuery(const std::string& name, sim::Micros start,
                            sim::Micros end, sim::Micros cpu, sim::Micros io,
                            sim::Micros overhead) {
  exec::QueryRecord q;
  q.name = name;
  q.metrics.start_time = start;
  q.metrics.end_time = end;
  q.metrics.cpu = cpu;
  q.metrics.io_stall = io;
  q.metrics.overhead = overhead;
  return q;
}

TEST(GainTest, Basics) {
  EXPECT_DOUBLE_EQ(Gain(100, 79), 0.21);
  EXPECT_DOUBLE_EQ(Gain(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(Gain(100, 120), -0.2);
  EXPECT_DOUBLE_EQ(Gain(0, 50), 0.0);  // Guard against division by zero.
}

TEST(CpuBreakdownTest, SplitsAttributedTime) {
  exec::RunResult run;
  run.streams.resize(1);
  // 1000us total: 500 cpu, 300 io, 100 overhead, 100 idle.
  run.streams[0].queries.push_back(MakeQuery("q", 0, 1000, 500, 300, 100));
  CpuBreakdown b = ComputeCpuBreakdown(run);
  EXPECT_DOUBLE_EQ(b.user, 0.5);
  EXPECT_DOUBLE_EQ(b.iowait, 0.3);
  EXPECT_DOUBLE_EQ(b.system, 0.1);
  EXPECT_DOUBLE_EQ(b.idle, 0.1);
}

TEST(CpuBreakdownTest, AggregatesAcrossStreams) {
  exec::RunResult run;
  run.streams.resize(2);
  run.streams[0].queries.push_back(MakeQuery("a", 0, 1000, 1000, 0, 0));
  run.streams[1].queries.push_back(MakeQuery("b", 0, 1000, 0, 1000, 0));
  CpuBreakdown b = ComputeCpuBreakdown(run);
  EXPECT_DOUBLE_EQ(b.user, 0.5);
  EXPECT_DOUBLE_EQ(b.iowait, 0.5);
}

TEST(CpuBreakdownTest, EmptyRunIsAllZero) {
  exec::RunResult run;
  CpuBreakdown b = ComputeCpuBreakdown(run);
  EXPECT_DOUBLE_EQ(b.user + b.system + b.iowait + b.idle, 0.0);
}

TEST(BitIdenticalTest, PushPipelineCounterDivergenceIsSeen) {
  exec::RunResult a;
  exec::RunResult b;
  std::string diff;
  EXPECT_TRUE(BitIdentical(a, b, &diff)) << diff;
  b.io.submitted = 1;
  EXPECT_FALSE(BitIdentical(a, b, &diff));
  EXPECT_EQ(diff, "io.submitted");
}

TEST(BitIdenticalTest, StepCountDivergenceIsSeen) {
  exec::RunResult a;
  exec::RunResult b;
  b.steps = 1;
  std::string diff;
  EXPECT_FALSE(BitIdentical(a, b, &diff));
  EXPECT_EQ(diff, "steps");
}

TEST(ThroughputGainsTest, ComputesAllThree) {
  exec::RunResult base;
  base.makespan = 1000;
  base.disk.pages_read = 300;
  base.disk.seeks = 100;
  exec::RunResult shared;
  shared.makespan = 790;
  shared.disk.pages_read = 201;
  shared.disk.seeks = 66;
  ThroughputGains g = ComputeThroughputGains(base, shared);
  EXPECT_DOUBLE_EQ(g.end_to_end, 0.21);
  EXPECT_DOUBLE_EQ(g.disk_read, 0.33);
  EXPECT_DOUBLE_EQ(g.disk_seek, 0.34);
}

TEST(PerStreamTest, ElapsedPerStream) {
  exec::RunResult run;
  run.streams.resize(2);
  run.streams[0].start = 100;
  run.streams[0].end = 600;
  run.streams[1].start = 0;
  run.streams[1].end = 900;
  auto elapsed = PerStreamElapsed(run);
  ASSERT_EQ(elapsed.size(), 2u);
  EXPECT_EQ(elapsed[0], 500u);
  EXPECT_EQ(elapsed[1], 900u);
}

TEST(PerQueryTest, AveragesByTemplateName) {
  exec::RunResult run;
  run.streams.resize(2);
  run.streams[0].queries.push_back(MakeQuery("Q1", 0, 100, 0, 0, 0));
  run.streams[0].queries.push_back(MakeQuery("Q6", 0, 50, 0, 0, 0));
  run.streams[1].queries.push_back(MakeQuery("Q1", 0, 300, 0, 0, 0));
  auto avg = PerQueryAverages(run);
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg["Q1"], 200.0);
  EXPECT_DOUBLE_EQ(avg["Q6"], 50.0);
}

TEST(CsvTest, WritesTwoSeries) {
  TimeSeries base(1'000'000), shared(1'000'000);
  base.Add(0, 10.0);
  base.Add(1'000'000, 20.0);
  shared.Add(0, 5.0);
  const std::string path = ::testing::TempDir() + "/series.csv";
  ASSERT_TRUE(WriteTimeSeriesCsv(path, base, shared).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "t_seconds,base,shared\n");
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "0.000,10.000,5.000\n");
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "1.000,20.000,0.000\n");
  std::fclose(f);
}

TEST(CsvTest, UnwritablePathFails) {
  TimeSeries base(1), shared(1);
  EXPECT_FALSE(WriteTimeSeriesCsv("/nonexistent-dir/x.csv", base, shared).ok());
}

// Regression (static-analysis sweep): a short write used to be dropped —
// fclose's result was ignored, so a full disk produced a truncated CSV and
// an OK status. /dev/full opens fine and fails every flush with ENOSPC.
TEST(CsvTest, ShortWriteSurfacesAsError) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) {
    GTEST_SKIP() << "/dev/full not available on this platform";
  }
  std::fclose(probe);
  TimeSeries base(1'000'000), shared(1'000'000);
  base.Add(0, 10.0);
  const Status st = WriteTimeSeriesCsv("/dev/full", base, shared);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInternal);
}

}  // namespace
}  // namespace scanshare::metrics
