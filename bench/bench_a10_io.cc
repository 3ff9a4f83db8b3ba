// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// A10 — push-based async I/O pipeline (DESIGN.md §15). Three arms over
// the same multi-stream Q1/Q6 mix on two tables: a CPU-bound batch Q1
// stream scanning `lineitem` while two I/O-bound Q6 streams (one sharing
// group) scan `orders_like` (see Q1Q6Mix for why two tables is the shape
// where push wins — the pipeline's makespan lever is seek amortization,
// not I/O/CPU overlap, which the demand engine already has). Arms:
//
//   sync-sim    the legacy demand-pull path (prefetch_depth = 0),
//   push-sim    the push pipeline over the deterministic sim backend,
//   push-file   the same pipeline reading a real preallocated table image
//               through pread workers (FileIoBackend).
//
// Reported:
//   1. Virtual makespan speedup push-sim vs sync-sim — batched window
//      refills keep the disk arm on one table for a run of sequential
//      extents instead of alternating tables every extent, in simulated
//      time. The checked-in artifact gate is speedup >= 1.2x.
//   2. Virtual parity push-sim vs push-file — identical makespan and disk
//      counters (backends only differ in where bytes move); any mismatch
//      is a hard failure.
//   3. Real-vs-sim validation — the file backend's measured preads /
//      pages / seeks against the virtual disk's prediction. reads and
//      pages must match exactly (one pread per charged extent read).
//      seeks tolerate a small delta (documented below): the real counter
//      seeds its "previous end" as cold (the first pread always counts as
//      a seek) while the virtual head starts parked at page 0, so the two
//      rules can differ by the first submission; tolerance is 10 %.
//   4. Wall-clock times of all three arms (real elapsed, like bench_p1) —
//      push-file pays for real syscalls, so its wall time is the cost of
//      validation, not a claim of speed.
//
// Use --json=PATH for the artifact (BENCH_io.json); --smoke shrinks the
// workload for CI.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "io/file_backend.h"

namespace scanshare::bench {
namespace {

/// The paper's intro scenario across two tables: a batch Q1-like report
/// stream crunching query after query over `lineitem`, plus two Q6-like
/// analyst streams scanning `orders_like` (they form one sharing group —
/// one disk read feeds both).
///
/// Why two tables: scan sharing already prefetches for group trailers (a
/// pull-mode group LEADER absorbs each extent's I/O wait while CPU-bound
/// trailers overlap it with their arithmetic), and the demand engine
/// already overlaps each scan's own transfer with its chunk CPU — so on
/// one shared table push measures ~1.0x at best. What the pull engine
/// CANNOT fix is the disk arm: with two groups on two tables, demand
/// reads alternate head position every extent and nearly every extent
/// pays a full seek. The push pipeline's batched window refills
/// (io::Prefetcher's refill hysteresis) put *runs* of sequential extents
/// into the disk queue, so the arm stays put for a run before switching
/// tables — same transfers, a fraction of the seeks.
std::vector<exec::StreamSpec> Q1Q6Mix(const BenchConfig& config) {
  const sim::Micros stagger = StaggerMicros(config);
  std::vector<exec::StreamSpec> streams(3);
  streams[0].queries.assign(config.queries_per_stream,
                            workload::MakeQ1Like("lineitem"));
  streams[1].queries.assign(config.queries_per_stream,
                            workload::MakeQ6Like("orders_like", /*year=*/5));
  streams[1].start_delay = stagger / 2;
  streams[2].queries.assign(config.queries_per_stream,
                            workload::MakeQ6Like("orders_like", /*year=*/3));
  streams[2].start_delay = stagger;
  return streams;
}

struct Arm {
  std::string name;
  exec::RunResult result;
  WallMeasurement wall;
};

void PrintArm(const Arm& arm) {
  std::printf("%-10s makespan %12.3f s | pages %10llu | seeks %8llu | "
              "prefetch hits %8llu | sync reads %6llu\n",
              arm.name.c_str(),
              static_cast<double>(arm.result.makespan) / 1e6,
              static_cast<unsigned long long>(arm.result.disk.pages_read),
              static_cast<unsigned long long>(arm.result.disk.seeks),
              static_cast<unsigned long long>(arm.result.io.prefetch_hits),
              static_cast<unsigned long long>(arm.result.io.sync_reads));
  std::printf("%-10s   throttle events %6llu | wait %9.3f s | "
              "cap suppressions %6llu | regroups %6llu\n",
              "", static_cast<unsigned long long>(arm.result.ssm.throttle_events),
              static_cast<double>(arm.result.ssm.total_wait) / 1e6,
              static_cast<unsigned long long>(arm.result.ssm.cap_suppressions),
              static_cast<unsigned long long>(arm.result.ssm.regroups));
}

std::string ArmToJson(const Arm& arm) {
  JsonObject o;
  o.Put("makespan_us", static_cast<uint64_t>(arm.result.makespan))
      .Put("disk_requests", arm.result.disk.requests)
      .Put("disk_pages_read", arm.result.disk.pages_read)
      .Put("disk_seeks", arm.result.disk.seeks)
      .Put("buffer_hits", arm.result.buffer.hits)
      .Put("buffer_misses", arm.result.buffer.misses)
      .Put("buffer_prefetch_hits", arm.result.buffer.prefetch_hits)
      .Put("io_submitted", arm.result.io.submitted)
      .Put("io_prefetch_hits", arm.result.io.prefetch_hits)
      .Put("io_sync_reads", arm.result.io.sync_reads)
      .Put("io_queue_full", arm.result.io.queue_full)
      .Put("io_dropped_stale", arm.result.io.dropped_stale)
      .Put("io_reissue_suppressed", arm.result.io.reissue_suppressed)
      .Put("ssm_throttle_events", arm.result.ssm.throttle_events)
      .Put("ssm_total_wait_us", static_cast<uint64_t>(arm.result.ssm.total_wait))
      .Put("ssm_cap_suppressions", arm.result.ssm.cap_suppressions)
      .Put("real_reads", arm.result.real_io.reads)
      .Put("real_pages_read", arm.result.real_io.pages_read)
      .Put("real_seeks", arm.result.real_io.seeks)
      .Put("real_direct_io",
           std::string(arm.result.real_io.direct_io ? "true" : "false"))
      .PutRaw("wall", WallToJson(arm.wall));
  return o.ToString();
}

}  // namespace

int Main(int argc, char** argv) {
  BenchConfig config = ParseFlags(argc, argv);
  auto db = BuildDatabase(config);
  // The mix's second table (same size, different seed) — two groups on
  // two tables is the seek-alternation shape the pipeline batches away.
  auto orders = workload::GenerateLineitem(
      db->catalog(), "orders_like",
      workload::LineitemRowsForPages(config.pages), config.seed + 1);
  if (!orders.ok()) {
    std::fprintf(stderr, "failed to load orders_like: %s\n",
                 orders.status().ToString().c_str());
    return 1;
  }
  PrintHeader("A10: push I/O pipeline — sync-sim vs push-sim vs push-file",
              *db, config);

  const auto streams = Q1Q6Mix(config);
  // Window depth 8: at the refill low-water mark (depth / 4) each refill
  // issues a run of ~5 sequential extents — deep enough to amortize the
  // cross-table seek, shallow enough that a regroup drops little work.
  const uint64_t depth = 8;

  exec::RunConfig sync_cfg = MakeRunConfig(*db, config, exec::ScanMode::kShared);
  sync_cfg.trace.enabled = false;  // Arms must be config-identical but for io.
  exec::RunConfig push_cfg = sync_cfg;
  push_cfg.io.prefetch_depth = depth;

  const std::string table_image =
      (std::filesystem::temp_directory_path() / "bench_a10_tables.img")
          .string();
  exec::RunConfig file_cfg = push_cfg;
  file_cfg.io.backend = exec::IoOptions::Backend::kFile;
  file_cfg.io.file_path = table_image;

  Status image = io::FileIoBackend::WriteTableFile(*db->disk_manager(),
                                                   table_image);
  if (!image.ok()) {
    std::fprintf(stderr, "table image write failed: %s\n",
                 image.ToString().c_str());
    return 1;
  }

  const auto run_arm = [&](const char* name, const exec::RunConfig& cfg) {
    Arm arm;
    arm.name = name;
    auto probe = db->Run(cfg, streams);
    if (!probe.ok()) {
      std::fprintf(stderr, "%s run failed: %s\n", name,
                   probe.status().ToString().c_str());
      std::exit(1);
    }
    arm.result = std::move(*probe);
    arm.wall = MeasureWall(name, static_cast<double>(arm.result.disk.pages_read),
                           config.warmup, config.reps, [&] {
                             auto rep = db->Run(cfg, streams);
                             if (!rep.ok()) std::exit(1);
                             return rep->disk.pages_read;
                           });
    return arm;
  };

  Arm sync_arm = run_arm("sync-sim", sync_cfg);
  Arm push_arm = run_arm("push-sim", push_cfg);
  Arm file_arm = run_arm("push-file", file_cfg);

  PrintArm(sync_arm);
  PrintArm(push_arm);
  PrintArm(file_arm);

  // 1. Virtual speedup: batched refills amortize cross-table seeks.
  const double speedup =
      push_arm.result.makespan > 0
          ? static_cast<double>(sync_arm.result.makespan) /
                static_cast<double>(push_arm.result.makespan)
          : 0.0;
  std::printf("\nvirtual makespan speedup (push-sim vs sync-sim): %.2fx\n",
              speedup);
  if (push_arm.result.io.prefetch_hits == 0) {
    std::fprintf(stderr, "FAIL: push-sim never hit the ready queue\n");
    return 1;
  }

  // 2. Backend invariance: virtual accounting must not see the byte source.
  const bool virtual_parity =
      push_arm.result.makespan == file_arm.result.makespan &&
      push_arm.result.disk.requests == file_arm.result.disk.requests &&
      push_arm.result.disk.pages_read == file_arm.result.disk.pages_read &&
      push_arm.result.disk.seeks == file_arm.result.disk.seeks;
  if (!virtual_parity) {
    std::fprintf(stderr,
                 "FAIL: push-file virtual counters diverge from push-sim\n");
    return 1;
  }
  std::printf("virtual parity: push-file == push-sim "
              "(makespan, requests, pages, seeks)\n");

  // 3. Real-vs-sim validation (tolerances documented in the header).
  const exec::RunResult& fr = file_arm.result;
  const bool reads_match = fr.real_io.reads == fr.disk.requests;
  const bool pages_match = fr.real_io.pages_read == fr.disk.pages_read;
  const double seek_delta_pct =
      fr.disk.seeks > 0
          ? 100.0 *
                std::abs(static_cast<double>(fr.real_io.seeks) -
                         static_cast<double>(fr.disk.seeks)) /
                static_cast<double>(fr.disk.seeks)
          : 0.0;
  std::printf("real-vs-sim: preads %llu vs charged %llu (%s) | pages %llu vs "
              "%llu (%s) | seeks %llu vs %llu (delta %.1f%%)\n",
              static_cast<unsigned long long>(fr.real_io.reads),
              static_cast<unsigned long long>(fr.disk.requests),
              reads_match ? "match" : "MISMATCH",
              static_cast<unsigned long long>(fr.real_io.pages_read),
              static_cast<unsigned long long>(fr.disk.pages_read),
              pages_match ? "match" : "MISMATCH",
              static_cast<unsigned long long>(fr.real_io.seeks),
              static_cast<unsigned long long>(fr.disk.seeks), seek_delta_pct);
  if (!reads_match || !pages_match || seek_delta_pct > 10.0) {
    std::fprintf(stderr, "FAIL: file backend diverges from sim prediction\n");
    return 1;
  }
  std::printf("backend: direct_io=%s\n",
              fr.real_io.direct_io ? "yes" : "no (buffered fallback)");

  PrintWall(sync_arm.wall);
  PrintWall(push_arm.wall);
  PrintWall(file_arm.wall);

  if (!config.json_path.empty()) {
    JsonObject cfg;
    cfg.Put("pages", config.pages)
        .Put("streams", static_cast<uint64_t>(streams.size()))
        .Put("queries_per_stream",
             static_cast<uint64_t>(config.queries_per_stream))
        .Put("seed", config.seed)
        .Put("extent_pages", config.extent_pages)
        .Put("prefetch_depth", depth)
        .Put("warmup", config.warmup)
        .Put("reps", config.reps);
    JsonObject validation;
    validation.Put("virtual_parity", std::string("true"))
        .Put("real_reads_match", std::string(reads_match ? "true" : "false"))
        .Put("real_pages_match", std::string(pages_match ? "true" : "false"))
        .Put("seek_delta_pct", seek_delta_pct)
        .Put("seek_tolerance_pct", 10.0);
    JsonObject root;
    root.Put("bench", std::string("a10_io"))
        .PutRaw("config", cfg.ToString())
        .PutRaw("sync_sim", ArmToJson(sync_arm))
        .PutRaw("push_sim", ArmToJson(push_arm))
        .PutRaw("push_file", ArmToJson(file_arm))
        .Put("virtual_speedup_push_vs_sync", speedup)
        .PutRaw("validation", validation.ToString());
    WriteFileOrDie(config.json_path, root.ToString());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  std::remove(table_image.c_str());
  return 0;
}

}  // namespace scanshare::bench

int main(int argc, char** argv) { return scanshare::bench::Main(argc, argv); }
