// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Shared harness for the figure/table benchmarks. Every bench binary
// loads a TPC-H-like database at a configurable scale, runs the baseline
// engine and the scan-sharing engine on the same workload, and prints the
// corresponding artifact of the paper (see EXPERIMENTS.md for the paper ->
// bench mapping).
//
// Common flags (all optional):
//   --pages=N      lineitem size in 32 KiB pages        (default 2048)
//   --streams=N    number of concurrent streams          (default 5)
//   --queries=N    queries per stream (throughput runs)  (default 10)
//   --seed=N       workload seed                         (default 2024)
//   --bp=F         buffer pool as a fraction of the DB   (default 0.05)
//   --extent=N     prefetch extent in pages              (default 16)
//   --stagger-ms=N stagger between staggered streams     (default 10% scan)
//   --csv=PATH     also dump series CSVs with this prefix
//   --json=PATH    write machine-readable results as JSON
//   --trace-out=PATH  capture a lifecycle event trace of every shared-mode
//                  run (bench_paper writes PATH.<run label> as Chrome
//                  trace_event JSON, loadable in Perfetto /
//                  chrome://tracing, plus .scans.csv and .metrics.json)
//   --warmup=N     wall-clock warmup repetitions          (default 1)
//   --reps=N       wall-clock measured repetitions        (default 5, min 2)
//   --jobs=N       worker threads for independent runs    (default: cores)
//   --smoke        tiny pages/streams/reps for CI smoke runs (flags after
//                  --smoke still override the shrunken defaults)

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "metrics/report.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace scanshare::bench {

/// Parsed command-line configuration shared by all bench binaries.
struct BenchConfig {
  uint64_t pages = 2048;
  size_t streams = 5;
  size_t queries_per_stream = 10;
  uint64_t seed = 2024;
  double bp_fraction = 0.05;
  uint64_t extent_pages = 16;
  uint64_t stagger_ms = 0;  // 0 = auto (10 % of a single Q6 scan).
  std::string csv_prefix;   // Empty = no CSV output.
  std::string json_path;    // Empty = no JSON output.
  std::string trace_path;   // Empty = no event tracing.
  int warmup = 1;           // Wall-clock warmup repetitions.
  int reps = 5;             // Wall-clock measured repetitions (>= 2).
  int jobs = 0;             // Worker threads for RunJobs; 0 = hardware.
  bool smoke = false;       // CI smoke mode (tiny workload).
};

/// Resolved worker count: `--jobs=N`, or hardware concurrency when unset.
/// 1 reproduces the sequential driver exactly (no thread pool is built).
size_t EffectiveJobs(const BenchConfig& config);

/// Parses the common flags; unknown flags abort with a usage message.
BenchConfig ParseFlags(int argc, char** argv);

/// Creates a database with a lineitem-like table of `config.pages` pages.
/// Aborts on failure (benches have no error recovery story).
std::unique_ptr<exec::Database> BuildDatabase(const BenchConfig& config);

/// Builds the RunConfig for one mode under `config`.
exec::RunConfig MakeRunConfig(const exec::Database& db, const BenchConfig& config,
                              exec::ScanMode mode);

/// Builds a fresh, private Database for one parallel run. Must be
/// deterministic: every invocation returns an identical database (same
/// tables, same page images), which is what makes parallel execution
/// bit-identical to sequential. BuildDatabase(config) satisfies this.
using DatabaseFactory = std::function<std::unique_ptr<exec::Database>()>;

/// One independent simulation run: an engine configuration plus its
/// workload.
struct RunJob {
  exec::RunConfig run;
  std::vector<exec::StreamSpec> streams;
};

/// Calls `run(db, i)` for every job index i in [0, factory_of.size()), on
/// a database from factories[factory_of[i]]. With EffectiveJobs(config)
/// == 1 (or a single job) this builds ONE database per factory, when a job
/// first needs it, and runs the jobs sequentially in order. Otherwise a
/// ThreadPool executes the jobs concurrently, in index order of start,
/// each on its own private database; `run` must write job i's result into
/// a pre-sized slot i. Since every run (Database::Run, ScanService::Run)
/// resets all mutable state and each factory is deterministic, the merged
/// output is bit-identical to the sequential driver
/// (parallel_determinism_test). Aborts on the first failed run (lowest
/// job index).
void RunEach(const BenchConfig& config,
             const std::vector<DatabaseFactory>& factories,
             const std::vector<size_t>& factory_of,
             const std::function<Status(exec::Database*, size_t)>& run);

/// RunEach over Database::Run: the results in job order.
std::vector<exec::RunResult> RunJobs(const BenchConfig& config,
                                     const DatabaseFactory& factory,
                                     const std::vector<RunJob>& jobs);

/// Stagger duration: the explicit flag, or 10 % of a single I/O-bound
/// full-table scan at this scale.
sim::Micros StaggerMicros(const BenchConfig& config);

/// Prints the standard bench header (scale, pool size, policy).
void PrintHeader(const std::string& title, const exec::Database& db,
                 const BenchConfig& config);

// ---------------------------------------------------------------------------
// Wall-clock measurement. The simulator benches above report *virtual* time;
// the hot-path benches report real elapsed time of the implementation itself.

/// One measured kernel: `reps` timed repetitions after `warmup` discarded
/// ones. `ops` is the number of logical operations one repetition performs
/// (fetches, scheduler steps, tuples), so rates are ops / seconds.
struct WallMeasurement {
  std::string name;
  double ops = 0.0;
  int warmup = 0;
  std::vector<double> rep_seconds;
  uint64_t checksum = 0;  ///< Folded return values (defeats dead-code elim).

  double best_seconds() const;
  double mean_seconds() const;
  /// Population standard deviation over the measured repetitions — the
  /// run-to-run noise best/mean alone hide. 0 for fewer than 2 reps
  /// (MeasureWall rejects those).
  double stddev_seconds() const;
  /// Throughput of the best repetition (the standard wall-bench statistic:
  /// least-interfered-with run).
  double ops_per_sec() const;
};

/// Times `fn` (which returns a checksum folded into the measurement) with
/// std::chrono::steady_clock: `warmup` untimed calls, then `reps` timed ones.
/// Aborts if reps < 2 — a single repetition has no variance estimate, and
/// silently reporting one would present noise as signal.
WallMeasurement MeasureWall(std::string name, double ops_per_rep, int warmup,
                            int reps, const std::function<uint64_t()>& fn);

/// Prints one measurement as a human-readable line.
void PrintWall(const WallMeasurement& m);

// ---------------------------------------------------------------------------
// Minimal JSON emitter for machine-readable bench artifacts (BENCH_*.json).

/// Order-preserving JSON object builder. Values render with enough
/// precision to round-trip doubles.
class JsonObject {
 public:
  JsonObject& Put(const std::string& key, double value);
  JsonObject& Put(const std::string& key, uint64_t value);
  JsonObject& Put(const std::string& key, int value);
  JsonObject& Put(const std::string& key, const std::string& value);
  /// Inserts pre-rendered JSON (a nested object or array) verbatim.
  JsonObject& PutRaw(const std::string& key, const std::string& raw);

  /// Renders with 2-space indentation, nested raws re-indented.
  std::string ToString(int indent = 0) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Renders a JSON array from pre-rendered element strings.
std::string JsonArray(const std::vector<std::string>& elements, int indent = 0);

/// Renders a WallMeasurement as a JSON object string.
std::string WallToJson(const WallMeasurement& m, int indent = 0);

/// Writes `json` to `path` (with a trailing newline). Aborts on I/O error.
void WriteFileOrDie(const std::string& path, const std::string& json);

}  // namespace scanshare::bench
