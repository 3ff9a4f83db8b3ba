// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.

#include "workloads.h"

#include "service/arrival.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace scanshare::benchmark {

namespace {

constexpr uint64_t kExtentPages = 16;
constexpr uint64_t kTablePages = 2048;  // 64 MiB of 32 KiB pages.
constexpr uint64_t kSmokeTablePages = 128;

// What the streams and jobs ask for (the Table 1 stream permutation, the
// service's job sequence and think times) belongs to a workload's
// definition, not to its inputs: fixing it keeps the amount of work the
// same on every seed while --seed regenerates the table contents. With
// --seed 2024 the runs are exactly bench_e1_throughput's and
// bench_a11_service's.
constexpr uint64_t kScheduleSeed = 2024;

Status AddLineitem(exec::Database* db, const std::string& name,
                   uint64_t pages, uint64_t seed) {
  return workload::GenerateLineitem(db->catalog(), name,
                                    workload::LineitemRowsForPages(pages), seed)
      .status();
}

exec::RunConfig SharedConfig(size_t frames) {
  exec::RunConfig c;
  c.mode = exec::ScanMode::kShared;
  c.policy = PolicyKind::kGroupThrottle;
  c.buffer.num_frames = frames;
  c.buffer.prefetch_extent_pages = kExtentPages;
  c.series_bucket = sim::Millis(100);
  return c;
}

// Paper Table 1: five streams, each a permutation of the default mix.
StatusOr<EngineCase> Table1(uint64_t seed, bool smoke, bool resident) {
  EngineCase c;
  c.db = std::make_unique<exec::Database>();
  const uint64_t pages = smoke ? kSmokeTablePages : kTablePages;
  SCANSHARE_RETURN_IF_ERROR(AddLineitem(c.db.get(), "lineitem", pages, seed));
  c.config = SharedConfig(
      c.db->FramesForFraction(resident ? 1.0 : 0.05, kExtentPages));
  c.streams = workload::MakeThroughputStreams(
      workload::DefaultQueryMix("lineitem"), smoke ? 2 : 5, smoke ? 2 : 10,
      kScheduleSeed);
  return c;
}

// bench_a10_io's mix: a CPU-bound Q1 stream on `lineitem` plus two
// staggered Q6 streams on `orders_like`, over the push pipeline. Two groups
// on two tables is the shape where batched window refills save seeks.
StatusOr<EngineCase> PushIo(uint64_t seed, bool smoke) {
  EngineCase c;
  c.db = std::make_unique<exec::Database>();
  const uint64_t pages = smoke ? kSmokeTablePages : kTablePages;
  SCANSHARE_RETURN_IF_ERROR(AddLineitem(c.db.get(), "lineitem", pages, seed));
  SCANSHARE_RETURN_IF_ERROR(
      AddLineitem(c.db.get(), "orders_like", pages, seed + 1));
  c.config = SharedConfig(c.db->FramesForFraction(0.05, kExtentPages));
  c.config.io.prefetch_depth = 8;
  c.push_file_gate = true;

  // 10 % of one I/O-bound full scan, as in bench_a10_io.
  const sim::Micros stagger =
      pages * sim::DiskOptions().transfer_micros_per_page / 10;
  const size_t queries = smoke ? 2 : 10;
  c.streams.resize(3);
  c.streams[0].queries.assign(queries, workload::MakeQ1Like("lineitem"));
  c.streams[1].queries.assign(queries,
                              workload::MakeQ6Like("orders_like", 5));
  c.streams[1].start_delay = stagger / 2;
  c.streams[2].queries.assign(queries,
                              workload::MakeQ6Like("orders_like", 3));
  c.streams[2].start_delay = stagger;
  return c;
}

// Hundreds of short, cheap range scans arriving 5 ms apart: the SSM's
// placement, grouping and throttling run on every extent while the tuple
// kernel (count + sum, no predicate) stays cheap. Paper-mode regrouping
// (a full rebuild on every location update). The kernel's virtual cost
// does not depend on the data, so the seed changes the answers but not
// the schedule.
StatusOr<EngineCase> ScanStorm(uint64_t seed, bool smoke) {
  EngineCase c;
  c.db = std::make_unique<exec::Database>();
  const uint64_t pages = smoke ? kSmokeTablePages : kTablePages;
  SCANSHARE_RETURN_IF_ERROR(AddLineitem(c.db.get(), "lineitem", pages, seed));
  c.config = SharedConfig(c.db->FramesForFraction(0.05, kExtentPages));
  c.streams = workload::MakeStaggeredStreams(
      workload::MakeRangeScan("lineitem", 0.0, 0.25, "R"), smoke ? 32 : 512,
      sim::Millis(5));
  return c;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "table1", "table1_resident", "push_io", "scan_storm", "service_closed"};
  return kNames;
}

bool IsServiceWorkload(const std::string& name) {
  return name == "service_closed";
}

StatusOr<EngineCase> BuildEngineCase(const std::string& name, uint64_t seed,
                                     bool smoke) {
  if (name == "table1") return Table1(seed, smoke, /*resident=*/false);
  if (name == "table1_resident") return Table1(seed, smoke, /*resident=*/true);
  if (name == "push_io") return PushIo(seed, smoke);
  if (name == "scan_storm") return ScanStorm(seed, smoke);
  return Status::InvalidArgument("unknown engine workload: " + name);
}

// bench_a11_service's closed-loop scenario: 64 clients with 50 ms mean
// think time over 8 Zipf-popular tables (every 4th MDC-clustered, so index
// scans go through the ISM), behind 48/12 admission caps and a 64-deep
// queue, with amortized (adaptive) regrouping.
StatusOr<ServiceCase> BuildServiceCase(uint64_t seed, bool smoke) {
  ServiceCase c;
  c.db = std::make_unique<exec::Database>();
  service::ServiceOptions& o = c.options;
  o.workload.num_tables = 8;
  o.workload.mdc_every = 4;
  o.workload.pages_per_table = smoke ? 32 : kTablePages / 8;
  o.workload.zipf_theta = 0.99;
  o.workload.seed = seed;
  SCANSHARE_ASSIGN_OR_RETURN(
      c.tables, service::BuildServiceTables(c.db->catalog(), o.workload));
  // ScanService::Run reads the workload seed only to sample the job mix.
  o.workload.seed = kScheduleSeed;

  o.arrival.kind = service::ArrivalKind::kClosedLoop;
  o.arrival.seed = kScheduleSeed + 4;
  o.arrival.num_jobs = smoke ? 100 : 1000;
  o.arrival.clients = smoke ? 8 : 64;
  o.arrival.think_time = 50'000;
  o.admission.global_cap = 48;
  o.admission.per_table_cap = 12;
  o.admission.queue_bound = 64;
  o.run = SharedConfig(128);
  o.run.ssm.adaptive_regroup = true;
  return c;
}

}  // namespace scanshare::benchmark
