// Golden-trace regression for the admission layer, mirroring
// trace_golden_test: a small saturated burst scenario must produce exactly
// the recorded *structure* of lifecycle events — now including the service
// kinds (admit / queue / shed) interleaved with query begin/end and the
// SSM's regroup/join/throttle events. Kinds, actors, and emission order
// are pinned; timestamps deliberately are not. A diff here means an
// admission decision, a queue drain, or the scan lifecycle itself changed
// order. A second golden pins the names and order of the service metrics,
// so a rename reaches review as a diff (the run goldens do the same for
// run metrics).
//
// Updating after an intentional behaviour change:
//
//   SCANSHARE_REGEN_GOLDEN=1 ./build/tests/admission_golden_test
//
// rewrites tests/golden/service_burst.trace and
// tests/golden/service_metrics.names in the source tree; re-run without
// the variable to confirm, and commit the new goldens together with the
// change that explains them.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "service/scan_service.h"
#include "service/service_metrics.h"

namespace scanshare {
namespace {

/// Compares `text` with tests/golden/`name`, or rewrites the golden (and
/// skips the test) under SCANSHARE_REGEN_GOLDEN.
void ExpectGolden(const std::string& name, const std::string& text) {
  const std::string path = std::string(SCANSHARE_GOLDEN_DIR) + "/" + name;
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
      << "diverged from " << path
      << " — if intentional, regen with SCANSHARE_REGEN_GOLDEN=1";
}

// The scenario constants are part of the golden contract: changing any of
// them legitimately changes the trace and requires a regen. Caps are tight
// enough that the burst drives all three admission outcomes.
service::ServiceOptions BurstOptions() {
  service::ServiceOptions options;
  options.workload.num_tables = 3;
  options.workload.mdc_every = 0;  // Heap tables only: a compact trace.
  options.workload.pages_per_table = 48;
  options.workload.seed = 77;
  options.arrival.kind = service::ArrivalKind::kPoissonBurst;
  options.arrival.seed = 19;
  options.arrival.num_jobs = 48;
  options.arrival.rate_per_sec = 600.0;
  options.arrival.burst_factor = 8.0;
  options.admission.global_cap = 5;
  options.admission.per_table_cap = 2;
  options.admission.queue_bound = 4;
  options.run.buffer.num_frames = 96;
  options.run.trace.enabled = true;
  return options;
}

TEST(AdmissionGoldenTest, BurstScenarioLifecycleStructureIsStable) {
  auto db = std::make_unique<exec::Database>();
  const service::ServiceOptions options = BurstOptions();
  auto tables = service::BuildServiceTables(db->catalog(), options.workload);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();

  service::ScanService svc(db.get());
  auto result = svc.Run(options, *tables);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->dropped(), 0u) << "ring too small for golden run";

  // The scenario must exercise all three admission outcomes, or the
  // golden would silently pin a weaker contract than it claims.
  ASSERT_GT(result->admission.queued, 0u);
  ASSERT_GT(result->admission.shed, 0u);
  ASSERT_GT(result->admission.admitted, 0u);

  const std::string summary = obs::StructuralSummary(result->trace->events());
  ASSERT_FALSE(summary.empty());
  // All three service kinds appear in the structural summary. Line-anchored
  // so "admit" does not accidentally match the SSM's "scan_admit" lines.
  const auto has_line = [&summary](const std::string& prefix) {
    return summary.rfind(prefix, 0) == 0 ||
           summary.find("\n" + prefix) != std::string::npos;
  };
  EXPECT_TRUE(has_line("admit "));
  EXPECT_TRUE(has_line("queue "));
  EXPECT_TRUE(has_line("shed "));

  ExpectGolden("service_burst.trace", summary);

  // Identical reruns must produce the identical trace.
  auto again = svc.Run(options, *tables);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(obs::StructuralSummary(again->trace->events()), summary);
}

TEST(AdmissionGoldenTest, ServiceMetricNamesAreStable) {
  // Names do not depend on values: an empty result registers them all.
  const service::ServiceResult empty;
  std::string names;
  for (const obs::MetricSample& m : service::CollectServiceMetrics(empty)) {
    names += m.name + '\n';
  }
  ExpectGolden("service_metrics.names", names);
}

}  // namespace
}  // namespace scanshare
