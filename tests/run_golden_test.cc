// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Run goldens: whole RunResults of the paper's experiment shapes, pinned
// byte for byte. Each golden holds every metrics::CollectRunMetrics name
// and value, the step count, every per-stream and per-query metric, every
// aggregate output (doubles as %a, so the bit pattern is the text), and
// the reads/seeks-over-time series. The runs cover both engines on the
// E1 throughput mix and the E2 staggered Q6 shape, plus staggered shared
// Q6/Q1/mid-weight streams over a small pool and a baseline multi-query
// mix (the count-only, predicate-free path). A diff here means a virtual
// result moved: a counter, a timestamp, or an aggregate's last bit.
//
// Updating a golden after an intentional behaviour change:
//
//   SCANSHARE_REGEN_GOLDEN=1 ./build/tests/run_golden_test
//
// rewrites tests/golden/*.run in the source tree (the path is baked in via
// SCANSHARE_GOLDEN_DIR); re-run without the variable to confirm, and
// commit the new golden together with the change that explains it.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics_export.h"
#include "obs/export.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void RenderSeries(const char* name, const TimeSeries& series,
                  std::ostringstream* out) {
  *out << "# " << name << " width " << series.bucket_width() << '\n';
  for (size_t i = 0; i < series.num_buckets(); ++i) {
    *out << i << ' ' << Hex(series.bucket(i)) << '\n';
  }
}

/// The golden text of one run.
std::string RenderRun(const exec::RunResult& run) {
  std::ostringstream out;
  out << "# metrics\n";
  for (const obs::MetricSample& m : metrics::CollectRunMetrics(run)) {
    out << m.name << ' ';
    if (m.type == obs::MetricSample::Type::kCounter) {
      out << m.counter;
    } else {
      out << Hex(m.gauge);
    }
    out << '\n';
  }
  out << "steps " << run.steps << '\n';
  out << "# queries\n";
  for (size_t s = 0; s < run.streams.size(); ++s) {
    const exec::StreamRecord& stream = run.streams[s];
    out << "stream " << s << " start " << stream.start << " end " << stream.end
        << '\n';
    for (const exec::QueryRecord& q : stream.queries) {
      const exec::ScanMetrics& m = q.metrics;
      out << "query " << q.stream << '.' << q.index << ' ' << q.name
          << " start " << m.start_time << " end " << m.end_time << " pages "
          << m.pages_scanned << " tuples " << m.tuples_scanned << " matched "
          << m.tuples_matched << " hits " << m.buffer_hits << " misses "
          << m.buffer_misses << " cpu " << m.cpu << " io_stall " << m.io_stall
          << " throttle " << m.throttle_wait << " overhead " << m.overhead
          << '\n';
      out << "  output scanned " << q.output.rows_scanned << " matched "
          << q.output.rows_matched << '\n';
      for (const exec::GroupResult& g : q.output.groups) {
        out << "  group '" << g.key << "' rows " << g.rows;
        for (double v : g.values) out << ' ' << Hex(v);
        out << '\n';
      }
    }
  }
  RenderSeries("reads_over_time", run.reads_over_time, &out);
  RenderSeries("seeks_over_time", run.seeks_over_time, &out);
  return out.str();
}

/// One golden's engine, config and streams.
struct RunSetup {
  exec::Database* db;
  exec::RunConfig config;
  std::vector<exec::StreamSpec> streams;
};

/// Built lazily, so the databases are generated only when a case runs.
struct GoldenRun {
  const char* name;  ///< tests/golden/<name>.run
  RunSetup (*make)();
};

void PrintTo(const GoldenRun& run, std::ostream* os) { *os << run.name; }

// The workload constants below are part of each golden's contract:
// changing any of them legitimately changes the run and needs a regen.

/// E1/E2 shapes on the 256-page seed-2024 table, pool at 5 %.
RunSetup PaperRun(exec::ScanMode mode, std::vector<exec::StreamSpec> streams) {
  exec::Database* db = testutil::SharedLineitemDb(256, 2024);
  return RunSetup{db,
                  testutil::MakeRunConfig(mode, db->FramesForFraction(0.05)),
                  std::move(streams)};
}

std::vector<exec::StreamSpec> ThroughputMix() {
  return workload::MakeThroughputStreams(
      workload::DefaultQueryMix("lineitem"), 3, 3, 7);
}

std::vector<exec::StreamSpec> StaggeredQ6() {
  return workload::MakeStaggeredStreams(workload::MakeQ6Like("lineitem"), 3,
                                        sim::Millis(500));
}

/// Three shared streams of `query`, 5 ms apart, over a 32-frame pool on
/// the 128-page seed-777 table.
RunSetup SmallPoolRun(const exec::QuerySpec& query) {
  exec::RunConfig config;
  config.mode = exec::ScanMode::kShared;
  config.buffer.num_frames = 32;
  std::vector<exec::StreamSpec> streams(3);
  for (size_t i = 0; i < streams.size(); ++i) {
    streams[i].start_delay = sim::Micros{i * 5000};
    streams[i].queries.push_back(query);
  }
  return RunSetup{testutil::SharedLineitemDb(128, 777), config,
                  std::move(streams)};
}

/// The default mix in baseline mode, 2 streams x 4 queries (seed 99).
RunSetup BaselineMixRun() {
  exec::RunConfig config;
  config.mode = exec::ScanMode::kBaseline;
  config.buffer.num_frames = 24;
  return RunSetup{testutil::SharedLineitemDb(128, 777), config,
                  workload::MakeThroughputStreams(
                      workload::DefaultQueryMix("lineitem"), 2, 4, 99)};
}

const GoldenRun kGoldenRuns[] = {
    {"e1_mix_baseline",
     [] { return PaperRun(exec::ScanMode::kBaseline, ThroughputMix()); }},
    {"e1_mix_shared",
     [] { return PaperRun(exec::ScanMode::kShared, ThroughputMix()); }},
    {"e2_staggered_q6_baseline",
     [] { return PaperRun(exec::ScanMode::kBaseline, StaggeredQ6()); }},
    {"e2_staggered_q6_shared",
     [] { return PaperRun(exec::ScanMode::kShared, StaggeredQ6()); }},
    {"small_pool_q6_shared",
     [] { return SmallPoolRun(workload::MakeQ6Like("lineitem")); }},
    {"small_pool_q1_shared",
     [] { return SmallPoolRun(workload::MakeQ1Like("lineitem")); }},
    {"small_pool_mid_shared",
     [] { return SmallPoolRun(workload::MakeMidWeight("lineitem")); }},
    {"small_pool_mix_baseline", BaselineMixRun},
};

class RunGoldenTest : public ::testing::TestWithParam<GoldenRun> {};

TEST_P(RunGoldenTest, RunIsByteIdenticalToGolden) {
  const GoldenRun& golden_run = GetParam();
  const RunSetup setup = golden_run.make();
  auto run = setup.db->Run(setup.config, setup.streams);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // The run must exercise the pool, or the golden pins nothing useful.
  ASSERT_GT(run->buffer.hits, 0u);
  ASSERT_GT(run->buffer.misses, 0u);
  const std::string text = RenderRun(*run);

  const std::string path =
      std::string(SCANSHARE_GOLDEN_DIR) + "/" + golden_run.name + ".run";
  if (std::getenv("SCANSHARE_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::WriteTextFile(path, text).ok());
    GTEST_SKIP() << "regenerated " << path << " (" << text.size()
                 << " bytes); re-run without SCANSHARE_REGEN_GOLDEN to verify";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run with SCANSHARE_REGEN_GOLDEN=1 to create";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str())
      << "run diverged from " << path
      << " — if intentional, regen with SCANSHARE_REGEN_GOLDEN=1";
}

INSTANTIATE_TEST_SUITE_P(Runs, RunGoldenTest,
                         ::testing::ValuesIn(kGoldenRuns),
                         [](const auto& tpi) { return tpi.param.name; });

}  // namespace
}  // namespace scanshare
