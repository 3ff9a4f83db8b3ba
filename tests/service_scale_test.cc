// Scale/property stress for the scan service (DESIGN.md §16): thousands
// of admitted streams across many seeds and arrival shapes, with the
// admission conservation law, the cap/queue bounds, and the engine's own
// invariants (pool + SSM CheckInvariants, audited mid-run) asserted on
// every run — plus a wall-clock budget on the SSM's per-regroup cost at
// 10k registered scans (the adaptive-regroup fix this layer depends on),
// and adaptive registration timed against legacy.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/audit.h"
#include "service/scan_service.h"
#include "service/service_metrics.h"
#include "ssm/scan_sharing_manager.h"

namespace scanshare {
namespace {

using service::ServiceOptions;
using service::ServiceResult;
using service::ServiceTable;

// Small tables keep per-job work tiny so job COUNT, not data volume, is
// what the suite scales in.
service::WorkloadSpec SmallWorkload() {
  service::WorkloadSpec w;
  w.num_tables = 6;
  w.mdc_every = 3;
  w.pages_per_table = 48;
  w.zipf_theta = 0.99;
  w.seed = 7;
  return w;
}

struct ServiceDb {
  std::unique_ptr<exec::Database> db;
  std::vector<ServiceTable> tables;
};

ServiceDb MakeServiceDb(const service::WorkloadSpec& spec) {
  ServiceDb out;
  out.db = std::make_unique<exec::Database>();
  auto tables = service::BuildServiceTables(out.db->catalog(), spec);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  out.tables = *std::move(tables);
  return out;
}

// The properties every service run must satisfy, regardless of arrival
// shape, seed, or admission pressure.
void CheckServiceInvariants(const ServiceOptions& options,
                            const ServiceResult& result) {
  const service::AdmissionStats& a = result.admission;
  // Conservation: every arrival got exactly one decision.
  EXPECT_EQ(a.arrived, a.admitted + a.queued + a.shed);
  EXPECT_EQ(a.arrived, result.jobs.size());
  EXPECT_EQ(a.shed, a.shed_global_cap + a.shed_table_cap);
  // The run ended, so everything queued was eventually admitted and
  // everything admitted was released.
  EXPECT_EQ(a.admitted_from_queue, a.queued);
  EXPECT_EQ(a.released, a.admitted + a.admitted_from_queue);
  // Bounds.
  EXPECT_LE(a.max_running, options.admission.global_cap);
  EXPECT_LE(a.max_queue_depth, options.admission.queue_bound);
  // Latency accounting covers exactly the completed jobs.
  EXPECT_EQ(result.sojourn.count, a.released);
  EXPECT_EQ(result.queue_wait.count, a.released);

  uint64_t completed = 0;
  for (const service::JobRecord& job : result.jobs) {
    if (job.shed) {
      EXPECT_EQ(job.end, 0u) << "job " << job.id;
      continue;
    }
    ++completed;
    EXPECT_GE(job.admit_at, job.arrival) << "job " << job.id;
    EXPECT_GE(job.end, job.admit_at) << "job " << job.id;
    EXPECT_EQ(job.from_queue, job.admit_at != job.arrival)
        << "job " << job.id;
    EXPECT_GT(job.output.rows_scanned, 0u) << "job " << job.id;
    EXPECT_LE(job.end, result.makespan) << "job " << job.id;
  }
  EXPECT_EQ(completed, a.released);
  // Nearest-rank quantiles are ordered by construction.
  EXPECT_LE(result.sojourn.p50, result.sojourn.p99);
  EXPECT_LE(result.sojourn.p99, result.sojourn.p999);
  EXPECT_LE(result.sojourn.p999, result.sojourn.max);
}

// 64 seeds x alternating arrival kinds, moderate load each: the admission
// layer sees every mix of immediate admits, queue waits, and sheds.
TEST(ServiceScaleTest, SixtyFourSeedSweepKeepsInvariants) {
  ServiceDb sdb = MakeServiceDb(SmallWorkload());
  constexpr service::ArrivalKind kKinds[] = {
      service::ArrivalKind::kFixedRate, service::ArrivalKind::kPoissonBurst,
      service::ArrivalKind::kDiurnal, service::ArrivalKind::kClosedLoop};

  service::ScanService svc(sdb.db.get());
  uint64_t total_shed = 0;
  uint64_t total_queued = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    ServiceOptions options;
    options.workload = SmallWorkload();
    options.arrival.kind = kKinds[seed % 4];
    options.arrival.seed = seed;
    options.arrival.num_jobs = 150;
    options.arrival.rate_per_sec = 400.0;  // Well above capacity: pressure.
    options.arrival.clients = 32;
    options.arrival.think_time = 20'000;
    options.admission.global_cap = 24;
    options.admission.per_table_cap = 8;
    options.admission.queue_bound = 32;
    options.run.buffer.num_frames = 128;
    options.audit_every_n_steps = 64;  // SSM/pool/admission audits mid-run.

    auto result = svc.Run(options, sdb.tables);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    CheckServiceInvariants(options, *result);
    total_shed += result->admission.shed;
    total_queued += result->admission.queued;
  }
  // The sweep must actually have exercised the queue and the shed path —
  // a sweep where every job admits immediately proves nothing.
  EXPECT_GT(total_queued, 0u);
  EXPECT_GT(total_shed, 0u);
}

// The acceptance-scale run: 10k arrivals through one service run, high
// concurrency caps so the SSM carries hundreds of simultaneous scans,
// adaptive regroup on (the service-scale configuration), invariants
// audited throughout.
TEST(ServiceScaleTest, TenThousandStreamsRunCleanly) {
  ServiceDb sdb = MakeServiceDb(SmallWorkload());
  ServiceOptions options;
  options.workload = SmallWorkload();
  options.arrival.kind = service::ArrivalKind::kPoissonBurst;
  options.arrival.seed = 11;
  options.arrival.num_jobs = 10'000;
  options.arrival.rate_per_sec = 2'000.0;
  options.arrival.burst_factor = 6.0;
  options.admission.global_cap = 384;
  options.admission.per_table_cap = 128;
  options.admission.queue_bound = 4'096;
  options.run.buffer.num_frames = 256;
  options.run.ssm.adaptive_regroup = true;
  options.audit_every_n_steps = 1'024;

  service::ScanService svc(sdb.db.get());
  auto result = svc.Run(options, sdb.tables);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  CheckServiceInvariants(options, *result);
  EXPECT_EQ(result->admission.arrived, 10'000u);
  // At these caps the burst must drive real queueing and real sharing.
  EXPECT_GT(result->admission.queued, 0u);
  EXPECT_GT(result->admission.max_running, 100u);
  EXPECT_GT(result->ssm.scans_joined, 0u);

  // The metrics bridge sees the same numbers the result does.
  const auto samples = service::CollectServiceMetrics(*result);
  bool saw_arrived = false;
  for (const obs::MetricSample& s : samples) {
    if (s.name == "service.arrived") {
      saw_arrived = true;
      EXPECT_EQ(s.counter, result->admission.arrived);
    }
  }
  EXPECT_TRUE(saw_arrived);
}

// One table of 2^20 pages, big enough that scans never crowd it; the
// regroup and registration timings below both scan it.
constexpr uint64_t kBigTablePages = 1 << 20;

ssm::ScanDescriptor BigTableScan() {
  ssm::ScanDescriptor d;
  d.table_id = 1;
  d.table_first = 0;
  d.table_end = kBigTablePages;
  d.range_first = 0;
  d.range_end = kBigTablePages;
  d.estimated_pages = kBigTablePages;
  d.estimated_duration = sim::Seconds(100);
  return d;
}

ssm::SsmOptions GroupingOnly(bool adaptive) {
  ssm::SsmOptions options;
  options.bufferpool_pages = 4'096;
  options.prefetch_extent_pages = 16;
  options.adaptive_regroup = adaptive;
  options.enable_throttling = false;  // Pure grouping; no throttle waits.
  return options;
}

// Per-regroup wall budget at 10k registered scans. With adaptive_regroup
// the full Fig.-14 rebuild runs once per ~active/8 updates, so a rebuild
// over 10k scans must stay cheap in absolute terms — this pins the
// superlinear-total-regroup-work fix at the scale the service needs.
// The budget is deliberately generous (CI machines vary); the pre-fix
// behaviour it guards against was a rebuild per update, orders of
// magnitude over it.
TEST(ServiceScaleTest, RegroupWallTimeBoundedAtTenThousandScans) {
  ssm::ScanSharingManager ssm(GroupingOnly(/*adaptive=*/true));

  constexpr size_t kScans = 10'000;
  const ssm::ScanDescriptor d = BigTableScan();

  std::vector<ssm::ScanId> ids;
  ids.reserve(kScans);
  sim::Micros now = 0;
  for (size_t i = 0; i < kScans; ++i) {
    auto start = ssm.StartScan(d, ++now);
    ASSERT_TRUE(start.ok());
    ids.push_back(start->id);
  }
  ASSERT_EQ(ssm.ActiveScanCount(), kScans);

  // Drive enough updates to trigger several full rebuilds at 10k active
  // scans (effective interval = 10'000 / 8 = 1250 updates).
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t position = 0;
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < 1'300; ++i) {
      ++position;
      auto update = ssm.UpdateLocation(ids[i], position % kBigTablePages,
                                       position, ++now);
      ASSERT_TRUE(update.ok());
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const uint64_t regroups = ssm.stats().regroups;
  ASSERT_GT(regroups, 0u) << "update volume never triggered a rebuild";

  const double per_regroup_ms =
      std::chrono::duration<double, std::milli>(elapsed).count() /
      static_cast<double>(regroups);
  // A 10k-scan rebuild re-sorts the ~1,250 scans that moved since the
  // last one, merges them back and makes one linear Fig.-14 pass —
  // about a millisecond on any host this suite runs on (audit builds
  // add a full table audit per rebuild and a group-scoped one per
  // update); 250 ms catches a complexity regression without flaking on
  // slow CI.
  EXPECT_LT(per_regroup_ms, 250.0)
      << regroups << " regroups took " << per_regroup_ms << " ms each";

  for (const ssm::ScanId id : ids) {
    ASSERT_TRUE(ssm.EndScan(id, ++now).ok());
  }
  EXPECT_EQ(ssm.ActiveScanCount(), 0u);
}

// Registration cost of a burst of scans on one table. An adaptive start
// appends a singleton group and one reverse-index entry; a legacy start
// rebuilds the table's whole grouping. So adaptive registration must take
// no longer than legacy. Both modes run in this process, best of three
// each, so the host's speed cancels out.
TEST(ServiceScaleTest, AdaptiveRegistrationNoSlowerThanLegacy) {
  if (kAuditEnabled) {
    GTEST_SKIP() << "audit builds run a full O(scans) audit after every "
                    "start, which swamps the difference timed here";
  }
  constexpr size_t kScans = 2'000;
  const ssm::ScanDescriptor d = BigTableScan();
  const auto best_register_seconds = [&](bool adaptive) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      ssm::ScanSharingManager ssm(GroupingOnly(adaptive));
      sim::Micros now = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < kScans; ++i) {
        EXPECT_TRUE(ssm.StartScan(d, ++now).ok());
      }
      const auto elapsed = std::chrono::steady_clock::now() - t0;
      EXPECT_EQ(ssm.ActiveScanCount(), kScans);
      best = std::min(best, std::chrono::duration<double>(elapsed).count());
    }
    return best;
  };
  const double legacy = best_register_seconds(false);
  const double adaptive = best_register_seconds(true);
  EXPECT_LE(adaptive, legacy) << "registering " << kScans << " scans took "
                              << adaptive << " s adaptive against " << legacy
                              << " s legacy";
}

}  // namespace
}  // namespace scanshare
