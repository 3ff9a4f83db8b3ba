// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Golden-trace regression tests: the canonical staggered Q1/Q6 shared run
// and a simultaneous-start three-stream run must produce exactly the
// recorded *structure* of lifecycle events — event kinds, actors, and
// emission order, deliberately not timestamps (those belong to perf, not
// structure). A diff here means the scan lifecycle itself changed:
// admission, placement joins, leader/trailer transitions, throttling,
// completion order, or the executor's tie rules.
//
// Updating a golden after an intentional behaviour change:
//
//   SCANSHARE_REGEN_GOLDEN=1 ./build/tests/trace_golden_test
//
// rewrites tests/golden/*.trace in the source tree (the path is baked in
// via SCANSHARE_GOLDEN_DIR); re-run without the variable to confirm, and
// commit the new golden together with the change that explains it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare {
namespace {

/// Runs `streams` under `config` (tracing on) and compares the structural
/// trace against tests/golden/`name`, or rewrites the golden under
/// SCANSHARE_REGEN_GOLDEN. A rerun must reproduce the trace exactly.
void ExpectGoldenTrace(exec::Database* db, const exec::RunConfig& config,
                       const std::vector<exec::StreamSpec>& streams,
                       const std::string& name) {
  auto result = db->Run(config, streams);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->dropped(), 0u) << "ring too small for golden run";
  const std::string summary = obs::StructuralSummary(result->trace->events());
  ASSERT_FALSE(summary.empty());

  const std::string path = std::string(SCANSHARE_GOLDEN_DIR) + "/" + name;
  if (std::getenv("SCANSHARE_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::WriteTextFile(path, summary).ok());
    GTEST_SKIP() << "regenerated " << path << " (" << summary.size()
                 << " bytes); re-run without SCANSHARE_REGEN_GOLDEN to verify";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run with SCANSHARE_REGEN_GOLDEN=1 to create";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(summary, golden.str())
      << "lifecycle structure diverged from " << path
      << " — if intentional, regen with SCANSHARE_REGEN_GOLDEN=1";

  // Identical reruns must produce the identical trace (determinism: the
  // golden is meaningful only because the run is reproducible).
  auto again = db->Run(config, streams);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(obs::StructuralSummary(again->trace->events()), summary);
}

// The workload constants below are part of each golden's contract:
// changing any of them legitimately changes the trace and needs a regen.

TEST(TraceGoldenTest, StaggeredQ1Q6LifecycleStructureIsStable) {
  exec::Database* db = testutil::SharedLineitemDb(/*pages=*/96, /*seed=*/2024);
  exec::RunConfig config =
      testutil::MakeRunConfig(exec::ScanMode::kShared, /*frames=*/24);
  config.trace.enabled = true;
  ExpectGoldenTrace(db, config,
                    testutil::StaggeredQ1Q6("lineitem", sim::Millis(20)),
                    "staggered_q1q6.trace");
}

// Three streams of two queries, all starting at t=0, one with think time
// between its queries. Pins the executor's tie rule for simultaneous
// starts: a stream's query open is its own heap event keyed (time, stream
// index), so stream 1 opens only after stream 0's first step.
TEST(TraceGoldenTest, SimultaneousStreamsLifecycleStructureIsStable) {
  exec::Database* db = testutil::SharedLineitemDb(/*pages=*/96, /*seed=*/2024);
  exec::RunConfig config =
      testutil::MakeRunConfig(exec::ScanMode::kShared, /*frames=*/24);
  config.trace.enabled = true;
  std::vector<exec::StreamSpec> streams(3);
  streams[0].queries = {workload::MakeQ1Like("lineitem"),
                        workload::MakeQ6Like("lineitem")};
  streams[1].queries = {workload::MakeQ6Like("lineitem"),
                        workload::MakeQ1Like("lineitem")};
  streams[1].inter_query_delay = sim::Millis(5);
  streams[2].queries = {workload::MakeQ6Like("lineitem"),
                        workload::MakeQ6Like("lineitem")};
  ExpectGoldenTrace(db, config, streams, "simultaneous_streams.trace");
}

}  // namespace
}  // namespace scanshare
