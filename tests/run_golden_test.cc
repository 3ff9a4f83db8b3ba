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
// The parity corpus (tests/golden/parity/*.run) pins every engine path at
// small scale with location samples and tracing on: five shapes (a Q1/Q6
// mix, staggered Q6, range scans, index scans, and a mix of table, index
// and empty-range scans), each in baseline and shared mode and under the
// ABM and PBM policies, each with pull reads and with a depth-4 push
// pipeline, plus one scan-service run over plain and MDC tables. Each
// golden is the run's text above plus every location sample and every
// trace event; a section longer than kSectionLines keeps its first
// kHeadLines lines and ends in a digest of all of them.
//
// Updating a golden after an intentional behaviour change:
//
//   SCANSHARE_REGEN_GOLDEN=1 ./build/tests/run_golden_test
//
// rewrites tests/golden/*.run and tests/golden/parity/*.run in the source
// tree (the path is baked in via SCANSHARE_GOLDEN_DIR); re-run without the
// variable to confirm, and commit the new goldens together with the change
// that explains them. A mismatch prints the first differing line.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics_export.h"
#include "obs/export.h"
#include "service/scan_service.h"
#include "service/service_metrics.h"
#include "testutil.h"
#include "workload/mdc_gen.h"
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

/// A "# metrics" section: one line per sample, gauges as %a.
void RenderMetrics(const std::vector<obs::MetricSample>& samples,
                   std::ostringstream* out) {
  *out << "# metrics\n";
  for (const obs::MetricSample& m : samples) {
    *out << m.name << ' ';
    if (m.type == obs::MetricSample::Type::kCounter) {
      *out << m.counter;
    } else {
      *out << Hex(m.gauge);
    }
    *out << '\n';
  }
}

/// A scan's counters from pages on, ending the line.
void RenderScanCounters(const exec::ScanMetrics& m, std::ostringstream* out) {
  *out << " pages " << m.pages_scanned << " tuples " << m.tuples_scanned
       << " matched " << m.tuples_matched << " hits " << m.buffer_hits
       << " misses " << m.buffer_misses << " cpu " << m.cpu << " io_stall "
       << m.io_stall << " throttle " << m.throttle_wait << " overhead "
       << m.overhead << '\n';
}

/// One line per aggregate group, values as %a.
void RenderGroups(const exec::QueryOutput& output, std::ostringstream* out) {
  for (const exec::GroupResult& g : output.groups) {
    *out << "  group '" << g.key << "' rows " << g.rows;
    for (double v : g.values) *out << ' ' << Hex(v);
    *out << '\n';
  }
}

/// The golden text of one run.
std::string RenderRun(const exec::RunResult& run) {
  std::ostringstream out;
  RenderMetrics(metrics::CollectRunMetrics(run), &out);
  out << "steps " << run.steps << '\n';
  out << "# queries\n";
  for (size_t s = 0; s < run.streams.size(); ++s) {
    const exec::StreamRecord& stream = run.streams[s];
    out << "stream " << s << " start " << stream.start << " end " << stream.end
        << '\n';
    for (const exec::QueryRecord& q : stream.queries) {
      out << "query " << q.stream << '.' << q.index << ' ' << q.name
          << " start " << q.metrics.start_time << " end "
          << q.metrics.end_time;
      RenderScanCounters(q.metrics, &out);
      out << "  output scanned " << q.output.rows_scanned << " matched "
          << q.output.rows_matched << '\n';
      RenderGroups(q.output, &out);
    }
  }
  RenderSeries("reads_over_time", run.reads_over_time, &out);
  RenderSeries("seeks_over_time", run.seeks_over_time, &out);
  return out.str();
}

/// Compares `text` with tests/golden/<name>.run, or rewrites that file
/// under SCANSHARE_REGEN_GOLDEN. A mismatch names the first differing line.
void ExpectGolden(const std::string& name, const std::string& text) {
  const std::string path =
      std::string(SCANSHARE_GOLDEN_DIR) + "/" + name + ".run";
  if (std::getenv("SCANSHARE_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::WriteTextFile(path, text).ok()) << path;
    GTEST_SKIP() << "regenerated " << path << " (" << text.size()
                 << " bytes); re-run without SCANSHARE_REGEN_GOLDEN to verify";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run with SCANSHARE_REGEN_GOLDEN=1 to create";
  std::stringstream golden;
  golden << in.rdbuf();
  if (text == golden.str()) return;
  std::istringstream fresh_lines(text);
  std::istringstream golden_lines(golden.str());
  std::string fresh_line;
  std::string golden_line;
  size_t line = 1;
  for (;; ++line) {
    const bool has_fresh =
        static_cast<bool>(std::getline(fresh_lines, fresh_line));
    const bool has_golden =
        static_cast<bool>(std::getline(golden_lines, golden_line));
    if (!has_fresh) fresh_line = "<end of text>";
    if (!has_golden) golden_line = "<end of text>";
    if (fresh_line != golden_line || !has_fresh || !has_golden) break;
  }
  ADD_FAILURE() << "run diverged from " << path << " at line " << line
                << "\n  golden: " << golden_line << "\n  fresh:  " << fresh_line
                << "\n— if intentional, regen with SCANSHARE_REGEN_GOLDEN=1";
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
  ExpectGolden(golden_run.name, RenderRun(*run));
}

INSTANTIATE_TEST_SUITE_P(Runs, RunGoldenTest,
                         ::testing::ValuesIn(kGoldenRuns),
                         [](const auto& tpi) { return tpi.param.name; });

// ---------------------------------------------------------- parity corpus

/// Longest section kept verbatim; a longer one keeps kHeadLines lines and
/// a digest of the whole section.
constexpr size_t kSectionLines = 128;
constexpr size_t kHeadLines = 16;

/// Replaces the body of every section (the lines after a "# " header)
/// longer than kSectionLines with its first kHeadLines lines and a line
/// "digest lines <n> fnv1a <hex>" over all of its lines.
std::string DigestLongSections(const std::string& text) {
  std::ostringstream out;
  std::vector<std::string> body;
  const auto flush = [&out, &body] {
    if (body.size() <= kSectionLines) {
      for (const std::string& line : body) out << line << '\n';
    } else {
      uint64_t hash = 14695981039346656037ULL;  // FNV-1a, 64-bit.
      for (const std::string& line : body) {
        for (const char c : line + '\n') {
          hash ^= static_cast<unsigned char>(c);
          hash *= 1099511628211ULL;
        }
      }
      for (size_t i = 0; i < kHeadLines; ++i) out << body[i] << '\n';
      char digest[32];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(hash));
      out << "digest lines " << body.size() << " fnv1a " << digest << '\n';
    }
    body.clear();
  };
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# ", 0) == 0) {
      flush();
      out << line << '\n';
    } else {
      body.push_back(line);
    }
  }
  flush();
  return out.str();
}

/// Every trace event, in emission order.
void RenderTrace(const obs::Tracer& tracer, std::ostringstream* out) {
  *out << "# trace emitted " << tracer.emitted() << " dropped "
       << tracer.dropped() << '\n';
  for (const obs::TraceEvent& e : tracer.events()) {
    *out << obs::EventKindName(e.kind) << ' ' << e.at << ' ' << e.dur << ' '
         << e.actor << ' ' << e.arg0 << ' ' << e.arg1 << '\n';
  }
}

/// RenderRun's text, every location sample and every trace event.
std::string RenderCorpusRun(const exec::RunResult& run) {
  std::ostringstream out;
  out << RenderRun(run);
  out << "# samples\n";
  for (const exec::StreamRecord& stream : run.streams) {
    for (const exec::QueryRecord& q : stream.queries) {
      for (const exec::LocationSample& sample : q.trace) {
        out << q.stream << '.' << q.index << ' ' << sample.time << ' '
            << sample.position << '\n';
      }
    }
  }
  RenderTrace(*run.trace, &out);
  return DigestLongSections(out.str());
}

/// The corpus database: lineitem (128 pages, seed 2024) and "mdc", an MDC
/// lineitem with a block index (4-page blocks, 2 regions, 7 keys). Built
/// once and leaked, like testutil::SharedLineitemDb.
exec::Database* CorpusDb() {
  static exec::Database* const db = [] {
    std::unique_ptr<exec::Database> made = testutil::MakeLineitemDb(128, 2024);
    workload::MdcOptions mdc;
    mdc.block_pages = 4;
    mdc.num_regions = 2;
    mdc.days_per_key = 365;
    if (!workload::GenerateMdcLineitem(made->catalog(), "mdc", 20000, 2024, mdc)
             .ok()) {
      std::abort();
    }
    return made.release();
  }();
  return db;
}

/// Three streams of Q1 and Q6 in per-stream orders, 20 ms apart.
std::vector<exec::StreamSpec> CorpusQ1Q6Mix() {
  std::vector<exec::StreamSpec> streams = workload::MakeThroughputStreams(
      {workload::MakeQ1Like("lineitem"), workload::MakeQ6Like("lineitem")}, 3,
      2, 5);
  for (size_t i = 0; i < streams.size(); ++i) {
    streams[i].start_delay = sim::Millis(20 * i);
  }
  return streams;
}

std::vector<exec::StreamSpec> CorpusStaggeredQ6() {
  return workload::MakeStaggeredStreams(workload::MakeQ6Like("lineitem"), 3,
                                        sim::Millis(40));
}

/// Overlapping partial-range scans of lineitem, 10 ms apart.
std::vector<exec::StreamSpec> CorpusRangeScans() {
  std::vector<exec::StreamSpec> streams(4);
  streams[0].queries = {workload::MakeRangeScan("lineitem", 0.0, 0.5, "R1")};
  streams[1].queries = {workload::MakeRangeScan("lineitem", 0.25, 0.75, "R2")};
  streams[2].queries = {workload::MakeRangeScan("lineitem", 0.5, 1.0, "R3"),
                        workload::MakeRangeScan("lineitem", 0.1, 0.9, "R4")};
  streams[3].queries = {workload::MakeRangeScan("lineitem", 0.0, 1.0, "R5")};
  for (size_t i = 0; i < streams.size(); ++i) {
    streams[i].start_delay = sim::Millis(10 * i);
  }
  return streams;
}

/// Block-index scans over overlapping key ranges of "mdc".
std::vector<exec::StreamSpec> CorpusIndexScans() {
  std::vector<exec::StreamSpec> streams(3);
  streams[0].queries = {workload::MakeIndexQ6Like("mdc", 0, 6),
                        workload::MakeIndexHeavy("mdc", 2, 5)};
  streams[1].start_delay = sim::Millis(10);
  streams[1].queries = {workload::MakeIndexHeavy("mdc", 0, 6),
                        workload::MakeIndexCount("mdc", 3, 3)};
  streams[2].start_delay = sim::Millis(25);
  streams[2].queries = {workload::MakeIndexCount("mdc", 1, 6),
                        workload::MakeIndexQ6Like("mdc", 5, 6)};
  return streams;
}

/// Table and index scans of "mdc" side by side, with an empty range scan
/// between them, and a Q6 of lineitem.
std::vector<exec::StreamSpec> CorpusMixedScans() {
  std::vector<exec::StreamSpec> streams(3);
  streams[0].queries = {workload::MakeRangeScan("mdc", 0.0, 1.0, "T"),
                        workload::MakeIndexCount("mdc", 1, 4)};
  streams[1].start_delay = sim::Millis(5);
  streams[1].queries = {workload::MakeIndexQ6Like("mdc", 0, 6),
                        workload::MakeRangeScan("mdc", 0.5, 0.5, "E"),
                        workload::MakeRangeScan("mdc", 0.2, 0.7, "T2")};
  streams[2].start_delay = sim::Millis(15);
  streams[2].queries = {workload::MakeQ6Like("lineitem"),
                        workload::MakeIndexHeavy("mdc", 3, 6)};
  return streams;
}

struct CorpusShape {
  const char* name;
  std::vector<exec::StreamSpec> (*streams)();
};

constexpr CorpusShape kCorpusShapes[] = {
    {"q1q6_mix", CorpusQ1Q6Mix},     {"staggered_q6", CorpusStaggeredQ6},
    {"range_scans", CorpusRangeScans}, {"index_scans", CorpusIndexScans},
    {"mixed_scans", CorpusMixedScans},
};

/// One corpus run: a shape under one engine regime and one read path.
struct CorpusRun {
  std::string name;  ///< tests/golden/parity/<name>.run
  const CorpusShape* shape;
  exec::ScanMode mode;
  PolicyKind policy;
  bool push;  ///< Depth-4 push pipeline instead of pull reads.
};

void PrintTo(const CorpusRun& run, std::ostream* os) { *os << run.name; }

std::vector<CorpusRun> CorpusRuns() {
  struct Regime {
    const char* name;
    exec::ScanMode mode;
    PolicyKind policy;
  };
  const Regime regimes[] = {
      {"baseline", exec::ScanMode::kBaseline, PolicyKind::kGroupThrottle},
      {"shared", exec::ScanMode::kShared, PolicyKind::kGroupThrottle},
      {"abm", exec::ScanMode::kShared, PolicyKind::kAbmRelevance},
      {"pbm", exec::ScanMode::kShared, PolicyKind::kPbmPredictive},
  };
  std::vector<CorpusRun> runs;
  for (const CorpusShape& shape : kCorpusShapes) {
    for (const Regime& regime : regimes) {
      for (const bool push : {false, true}) {
        runs.push_back(CorpusRun{std::string("parity/") + shape.name + "_" +
                                     regime.name + (push ? "_push" : "_pull"),
                                 &shape, regime.mode, regime.policy, push});
      }
    }
  }
  return runs;
}

class ParityCorpusTest : public ::testing::TestWithParam<CorpusRun> {};

TEST_P(ParityCorpusTest, RunIsByteIdenticalToGolden) {
  const CorpusRun& corpus_run = GetParam();
  exec::RunConfig config =
      testutil::MakeRunConfig(corpus_run.mode, /*frames=*/24, /*extent=*/4);
  config.policy = corpus_run.policy;
  if (corpus_run.push) config.io.prefetch_depth = 4;
  config.record_traces = true;
  config.trace.enabled = true;
  auto run = CorpusDb()->Run(config, corpus_run.shape->streams());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(run->buffer.misses, 0u);
  ASSERT_NE(run->trace, nullptr);
  ASSERT_EQ(run->trace->dropped(), 0u) << "ring too small for a golden run";
  ExpectGolden(corpus_run.name, RenderCorpusRun(*run));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ParityCorpusTest, ::testing::ValuesIn(CorpusRuns()),
    [](const auto& tpi) { return tpi.param.name.substr(sizeof("parity/") - 1); });

TEST(ParityCorpusTest, ServiceRunOverPlainAndMdcTablesIsByteIdenticalToGolden) {
  static exec::Database db;
  service::ServiceOptions options;
  options.workload.num_tables = 4;
  options.workload.mdc_every = 2;
  options.workload.pages_per_table = 48;
  options.workload.seed = 31;
  options.arrival.kind = service::ArrivalKind::kClosedLoop;
  options.arrival.seed = 5;
  options.arrival.num_jobs = 40;
  options.arrival.clients = 10;
  options.arrival.think_time = sim::Millis(20);
  options.admission.global_cap = 6;
  options.admission.per_table_cap = 3;
  options.run = testutil::MakeRunConfig(exec::ScanMode::kShared, 24, 4);
  options.run.trace.enabled = true;
  auto tables = service::BuildServiceTables(db.catalog(), options.workload);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  service::ScanService svc(&db);
  auto result = svc.Run(options, *tables);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->admission.queued, 0u);
  ASSERT_GT(result->ism.scans_started, 0u);  // The MDC tables were used.
  ASSERT_NE(result->trace, nullptr);
  ASSERT_EQ(result->trace->dropped(), 0u) << "ring too small for a golden run";

  std::ostringstream out;
  RenderMetrics(service::CollectServiceMetrics(*result), &out);
  out << "steps " << result->steps << '\n';
  out << "# jobs\n";
  for (const service::JobRecord& job : result->jobs) {
    out << "job " << job.id << " table " << job.table << " client "
        << job.client << ' ' << job.query << " arrival " << job.arrival
        << " shed " << job.shed << " reason "
        << static_cast<int>(job.shed_reason) << " queued " << job.from_queue
        << " admit " << job.admit_at << " end " << job.end;
    RenderScanCounters(job.metrics, &out);
    RenderGroups(job.output, &out);
  }
  RenderTrace(*result->trace, &out);
  ExpectGolden("parity/service_plain_and_mdc",
               DigestLongSections(out.str()));
}

}  // namespace
}  // namespace scanshare
