// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// scanshare_bench — runs one benchmark workload in this process and reports
// its end-to-end and per-layer metrics (README.md has the metric table).
//
//   scanshare_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   [--out DIR] [--work-dir DIR] [--smoke]
//
// One run: build the tables nine times (set-up), run a baseline-mode
// oracle and one warm-up repetition (both untimed), then time repetitions
// until --seconds have passed. With --trace 1 one more repetition runs
// through the timing decorators of layers.h and the tuple kernel is
// replayed to estimate its share. push_io also runs once over the
// real-file backend. Every run is checked; see the gates below.
//
// Human-readable metric lines go to stdout first. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}, where
// metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1). --out DIR also writes DIR/<workload>.json (end-to-end
// metrics, samples, gates) and, when traced, DIR/<workload>.layers.json.
// A failed gate makes the exit code 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/file_backend.h"
#include "layers.h"
#include "metrics/report.h"
#include "sample_stats.h"
#include "service/latency.h"
#include "workload/queries.h"
#include "workloads.h"

namespace scanshare::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupBuilds = 9;
constexpr size_t kTracedReps = 3;
constexpr int kReplayPasses = 7;
constexpr double kOracleRelTolerance = 1e-9;

struct Options {
  std::string workload;
  uint64_t seed = 2024;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string work_dir = ".";
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produces.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<Metric> end_to_end;  ///< Host metrics (bounded).
  /// The model's results in virtual time: deterministic for a seed, and
  /// for table1 a chaotic function of it, so they are reported (and
  /// compared for exact equality) but carry no bound.
  std::vector<Metric> virtual_results;
  std::vector<Metric> baseline;  ///< The oracle run's virtual results.
  std::vector<Metric> layers;
  std::string templates_json = "{}";  ///< Per-template kernel rates.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> gates;

  bool correct() const {
    if (failed != 0) return false;
    for (const auto& [name, ok] : gates) {
      if (!ok) return false;
    }
    return true;
  }
};

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

size_t MinReps(const Options& opt) { return opt.smoke ? 1 : 3; }
size_t TracedReps(const Options& opt) { return opt.smoke ? 1 : kTracedReps; }

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "%s\nusage: scanshare_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR] [--work-dir DIR] "
               "[--smoke]\n",
               problem.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--out") {
      o.out_dir = value;
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else {
      Usage("unknown flag " + arg);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage("malformed value for " + arg);
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == o.workload;
  if (!known) Usage("unknown or missing --workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) Usage("--seconds must be positive");
  return o;
}

// ------------------------------------------------------------------ JSON

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string ArrayJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body << "\n";
  f.close();
  if (!f) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return static_cast<bool>(f);
}

// ----------------------------------------------------------------- gates

void Gate(Outcome* out, const std::string& name, bool ok,
          const std::string& detail = "") {
  out->gates.emplace_back(name, ok);
  if (!ok) {
    std::fprintf(stderr, "GATE FAILED: %s%s%s\n", name.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
  }
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <=
         kOracleRelTolerance * std::max(std::fabs(a), std::fabs(b)) + 1e-12;
}

bool SameAnswer(const exec::QueryOutput& a, const exec::QueryOutput& b) {
  if (a.rows_scanned != b.rows_scanned || a.rows_matched != b.rows_matched ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  for (size_t g = 0; g < a.groups.size(); ++g) {
    const exec::GroupResult& ga = a.groups[g];
    const exec::GroupResult& gb = b.groups[g];
    if (ga.key != gb.key || ga.rows != gb.rows ||
        ga.values.size() != gb.values.size()) {
      return false;
    }
    for (size_t v = 0; v < ga.values.size(); ++v) {
      if (!NearlyEqual(ga.values[v], gb.values[v])) return false;
    }
  }
  return true;
}

/// Queries of `run` whose answer differs from the oracle's (same stream,
/// same position), within kOracleRelTolerance: shared scans start
/// mid-table and wrap, so floating-point sums fold in another order.
uint64_t OracleMismatches(const exec::RunResult& run,
                          const exec::RunResult& oracle) {
  uint64_t bad = 0;
  for (size_t s = 0; s < run.streams.size(); ++s) {
    for (size_t q = 0; q < run.streams[s].queries.size(); ++q) {
      const bool present = s < oracle.streams.size() &&
                           q < oracle.streams[s].queries.size();
      if (!present || !SameAnswer(run.streams[s].queries[q].output,
                                  oracle.streams[s].queries[q].output)) {
        ++bad;
      }
    }
  }
  return bad;
}

// --------------------------------------------------------------- helpers

uint64_t CountQueries(const std::vector<exec::StreamSpec>& streams) {
  uint64_t n = 0;
  for (const exec::StreamSpec& s : streams) n += s.queries.size();
  return n;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Times repetitions of `rep` until `seconds` have passed (and at least
/// `min_reps` ran), appending each duration to `wall`.
template <typename Rep>
void MeasureFor(double seconds, size_t min_reps, std::vector<double>* wall,
                Rep rep) {
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    rep();
    wall->push_back(SecondsBetween(t0, Clock::now()));
  } while (wall->size() < min_reps ||
           SecondsBetween(start, Clock::now()) < seconds);
}

template <typename Build, typename Case>
bool SetUp(Build build, Outcome* out, Case* result) {
  for (int i = 0; i < kSetupBuilds; ++i) {
    *result = Case{};  // Free the previous build before timing the next.
    const Clock::time_point t0 = Clock::now();
    auto built = build();
    out->setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    *result = std::move(*built);
  }
  return true;
}

/// Per-template kernel rates from the replay probe, and the estimate they
/// give for the run: Σ over templates of tuples scanned × ns per tuple.
struct KernelEstimate {
  double seconds = 0.0;
  double predicate_ns_per_tuple = 0.0;  ///< Tuple-weighted over templates.
  double agg_ns_per_tuple = 0.0;
  std::string templates_json = "{}";
};

/// Template name -> (its query spec, tuples it scanned in the run).
using TemplateTuples =
    std::map<std::string, std::pair<exec::QuerySpec, uint64_t>>;

StatusOr<KernelEstimate> EstimateKernel(exec::Database* db,
                                        const TemplateTuples& templates) {
  KernelEstimate est;
  double pred_weighted = 0.0;
  double agg_weighted = 0.0;
  uint64_t tuples = 0;
  // Passes go round-robin over the templates, so that a burst of host
  // noise lands on one pass of each template, not on every pass of one.
  std::map<std::string, std::vector<double>> pred_ns;
  std::map<std::string, std::vector<double>> agg_ns;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    for (const auto& [name, entry] : templates) {
      SCANSHARE_ASSIGN_OR_RETURN(KernelRate rate,
                                 ReplayKernelPass(db, entry.first));
      pred_ns[name].push_back(rate.predicate_ns_per_tuple);
      agg_ns[name].push_back(rate.agg_ns_per_tuple);
    }
  }
  est.templates_json = "{";
  for (const auto& [name, entry] : templates) {
    const KernelRate rate{Median(pred_ns[name]), Median(agg_ns[name])};
    const auto n = static_cast<double>(entry.second);
    pred_weighted += n * rate.predicate_ns_per_tuple;
    agg_weighted += n * rate.agg_ns_per_tuple;
    tuples += entry.second;
    if (est.templates_json.size() > 1) est.templates_json += ", ";
    est.templates_json +=
        JsonString(name) + ": {\"predicate_ns_per_tuple\": " +
        JsonNumber(rate.predicate_ns_per_tuple) +
        ", \"agg_ns_per_tuple\": " + JsonNumber(rate.agg_ns_per_tuple) +
        ", \"tuples_scanned\": " + std::to_string(entry.second) + "}";
  }
  est.templates_json += "}";
  est.seconds = (pred_weighted + agg_weighted) * 1e-9;
  if (tuples > 0) {
    est.predicate_ns_per_tuple = pred_weighted / static_cast<double>(tuples);
    est.agg_ns_per_tuple = agg_weighted / static_cast<double>(tuples);
  }
  return est;
}

/// Layer metrics common to both kinds of workload: seam times (zero where
/// the run has no decorated seams), kernel estimate, remainder, overhead.
void AddTimeLayers(const LayerClock& clock, const KernelEstimate& kernel,
                   double traced_wall, double untraced_median, Outcome* out) {
  double attributed = kernel.seconds;
  for (size_t i = 0; i < static_cast<size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    const LayerTotals& t = clock.totals(layer);
    const double s = static_cast<double>(t.self_ns) * 1e-9;
    attributed += s;
    out->layers.push_back({std::string(LayerName(layer)) + "_s", s, "s"});
    out->layers.push_back({std::string(LayerName(layer)) + "_calls",
                           static_cast<double>(t.calls), "count"});
  }
  out->layers.push_back({"kernel.est_s", kernel.seconds, "s"});
  out->layers.push_back(
      {"kernel.predicate_ns_per_tuple", kernel.predicate_ns_per_tuple, "ns"});
  out->layers.push_back({"agg.ns_per_tuple", kernel.agg_ns_per_tuple, "ns"});
  out->layers.push_back({"exec.unattributed_s", traced_wall - attributed, "s"});
  out->layers.push_back({"trace.wall_s", traced_wall, "s"});
  out->layers.push_back(
      {"trace.overhead_pct",
       100.0 * (traced_wall - untraced_median) / untraced_median, "%"});
  out->templates_json = kernel.templates_json;
}

struct Counters {
  uint64_t steps = 0;
  uint64_t tuples_scanned = 0;
  buffer::BufferPoolStats buffer;
  io::IoPipelineStats io;
  ssm::SsmStats ssm;
  uint64_t max_running = 0;
  uint64_t queued = 0;
  double queue_wait_p99_ms = 0.0;
};

void AddCounterLayers(const Counters& c, Outcome* out) {
  const auto count = [out](const char* name, uint64_t v) {
    out->layers.push_back({name, static_cast<double>(v), "count"});
  };
  count("exec.steps", c.steps);
  count("exec.tuples_scanned", c.tuples_scanned);
  out->layers.push_back(
      {"buffer.hit_ratio", Ratio(c.buffer.hits, c.buffer.logical_reads),
       "ratio"});
  count("buffer.evictions", c.buffer.evictions);
  count("buffer.logical_reads", c.buffer.logical_reads);
  out->layers.push_back(
      {"io.useful_ratio", Ratio(c.io.prefetch_hits, c.io.submitted), "ratio"});
  count("io.dropped_stale", c.io.dropped_stale);
  count("io.reissue_suppressed", c.io.reissue_suppressed);
  count("ssm.updates", c.ssm.updates);
  count("ssm.regroups", c.ssm.regroups);
  count("ssm.scans_joined", c.ssm.scans_joined);
  out->layers.push_back({"ssm.throttle_wait_s",
                         static_cast<double>(c.ssm.total_wait) * 1e-6,
                         "virtual_s"});
  count("ssm.cap_suppressions", c.ssm.cap_suppressions);
  count("admission.max_running", c.max_running);
  count("admission.queued", c.queued);
  out->layers.push_back(
      {"service.queue_wait_p99_ms", c.queue_wait_p99_ms, "virtual_ms"});
}

std::vector<Metric> VirtualMetrics(
    sim::Micros makespan, const sim::DiskStats& disk,
    const service::LatencyRecorder::Snapshot& sojourn) {
  return {
      {"sim.virtual_makespan_s", static_cast<double>(makespan) * 1e-6,
       "virtual_s"},
      {"sim.disk_pages_read", static_cast<double>(disk.pages_read), "pages"},
      {"sim.disk_seeks", static_cast<double>(disk.seeks), "seeks"},
      {"sim.sojourn_p50_ms", static_cast<double>(sojourn.p50) * 1e-3,
       "virtual_ms"},
      {"sim.sojourn_p99_ms", static_cast<double>(sojourn.p99) * 1e-3,
       "virtual_ms"},
  };
}

// ------------------------------------------------------- engine workloads

/// Virtual results of an engine run; a query's sojourn is its elapsed
/// virtual time (streams start their queries without queueing).
std::vector<Metric> VirtualResults(const exec::RunResult& run) {
  service::LatencyRecorder sojourn;
  for (const exec::StreamRecord& s : run.streams) {
    for (const exec::QueryRecord& q : s.queries) {
      sojourn.Add(static_cast<uint64_t>(q.metrics.Elapsed()));
    }
  }
  return VirtualMetrics(run.makespan, run.disk, sojourn.Summarize());
}

bool RunEngine(const Options& opt, Outcome* out) {
  EngineCase c;
  if (!SetUp([&] { return BuildEngineCase(opt.workload, opt.seed, opt.smoke); },
             out, &c)) {
    return false;
  }
  exec::Database* db = c.db.get();
  const uint64_t ops = CountQueries(c.streams);

  // Oracle: the vanilla engine (baseline scans, LRU, demand reads).
  exec::RunConfig baseline = c.config;
  baseline.mode = exec::ScanMode::kBaseline;
  baseline.io = exec::IoOptions{};
  StatusOr<exec::RunResult> oracle = db->Run(baseline, c.streams);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle run failed: %s\n",
                 oracle.status().ToString().c_str());
    return false;
  }

  // Warm-up repetition: the reference every later repetition must equal.
  StatusOr<exec::RunResult> warm = db->Run(c.config, c.streams);
  if (!warm.ok()) {
    std::fprintf(stderr, "warm-up run failed: %s\n",
                 warm.status().ToString().c_str());
    return false;
  }
  const exec::RunResult reference = *std::move(warm);
  const uint64_t mismatches = OracleMismatches(reference, *oracle);
  Gate(out, "oracle_match", mismatches == 0,
       std::to_string(mismatches) + " queries differ from the baseline run");
  out->attempted += ops;
  out->failed += mismatches;

  // A repetition that errs or diverges from the reference fails all of its
  // queries; one that matches inherits the reference's oracle mismatches.
  const auto check_rep = [&](const StatusOr<exec::RunResult>& r,
                             std::string* diff) {
    out->attempted += ops;
    const bool same = r.ok() && metrics::BitIdentical(*r, reference, diff);
    out->failed += same ? mismatches : ops;
    if (!r.ok()) *diff = r.status().ToString();
    return same;
  };

  bool reps_identical = true;
  std::string rep_diff;
  MeasureFor(opt.seconds, MinReps(opt), &out->wall_s, [&] {
    const StatusOr<exec::RunResult> r = db->Run(c.config, c.streams);
    reps_identical &= check_rep(r, &rep_diff);
  });
  Gate(out, "reps_bit_identical", reps_identical, rep_diff);

  if (c.push_file_gate) {
    // The same pipeline over a real table image: virtual accounting must
    // not see the byte source, and every charged read is one pread.
    const std::string image = opt.work_dir + "/" + opt.workload + "-" +
                              std::to_string(getpid()) + ".img";
    exec::RunConfig file = c.config;
    file.io.backend = exec::IoOptions::Backend::kFile;
    file.io.file_path = image;
    const Status written =
        io::FileIoBackend::WriteTableFile(*db->disk_manager(), image);
    StatusOr<exec::RunResult> r = written.ok()
                                      ? db->Run(file, c.streams)
                                      : StatusOr<exec::RunResult>(written);
    std::remove(image.c_str());
    out->attempted += ops;
    const bool parity =
        r.ok() && r->makespan == reference.makespan &&
        r->disk.requests == reference.disk.requests &&
        r->disk.pages_read == reference.disk.pages_read &&
        r->disk.seeks == reference.disk.seeks &&
        r->real_io.reads == r->disk.requests &&
        r->real_io.pages_read == r->disk.pages_read;
    out->failed += parity ? OracleMismatches(*r, *oracle) : ops;
    Gate(out, "push_file_parity", parity,
         r.ok() ? "file backend diverges from push-sim"
                : r.status().ToString());
  }

  if (opt.trace) {
    // The layer split comes from the traced repetition with the median
    // wall time, so one noisy repetition cannot skew it.
    std::vector<std::pair<double, LayerClock>> traced_reps;
    bool traced_identical = true;
    std::string diff;
    for (size_t i = 0; i < TracedReps(opt); ++i) {
      LayerClock clock;
      const Clock::time_point t0 = Clock::now();
      const StatusOr<exec::RunResult> traced =
          RunTraced(db, c.config, c.streams, &clock);
      traced_reps.emplace_back(SecondsBetween(t0, Clock::now()), clock);
      traced_identical &= check_rep(traced, &diff);
    }
    Gate(out, "traced_bit_identical", traced_identical, diff);
    std::sort(traced_reps.begin(), traced_reps.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const auto& [traced_wall, clock] = traced_reps[traced_reps.size() / 2];

    TemplateTuples templates;
    for (const exec::StreamSpec& s : c.streams) {
      for (const exec::QuerySpec& q : s.queries) {
        templates.emplace(q.name, std::make_pair(q, 0));
      }
    }
    Counters counters;
    for (const exec::StreamRecord& s : reference.streams) {
      for (const exec::QueryRecord& q : s.queries) {
        templates[q.name].second += q.metrics.tuples_scanned;
        counters.tuples_scanned += q.metrics.tuples_scanned;
        // One step opens the scan, then one per extent chunk.
        counters.steps += 1 + (q.metrics.pages_scanned +
                               c.config.buffer.prefetch_extent_pages - 1) /
                                  c.config.buffer.prefetch_extent_pages;
      }
    }
    StatusOr<KernelEstimate> kernel = EstimateKernel(db, templates);
    if (!kernel.ok()) {
      std::fprintf(stderr, "kernel replay failed: %s\n",
                   kernel.status().ToString().c_str());
      return false;
    }
    AddTimeLayers(clock, *kernel, traced_wall, Median(out->wall_s), out);
    counters.buffer = reference.buffer;
    counters.io = reference.io;
    counters.ssm = reference.ssm;
    AddCounterLayers(counters, out);
  }

  out->virtual_results = VirtualResults(reference);
  out->baseline = VirtualResults(*oracle);
  return true;
}

// ------------------------------------------------------ service workload

/// Service runs have no BitIdentical; compare everything a run reports.
bool SameServiceRun(const service::ServiceResult& a,
                    const service::ServiceResult& b) {
  if (a.jobs.size() != b.jobs.size() || a.makespan != b.makespan ||
      a.steps != b.steps || a.disk.pages_read != b.disk.pages_read ||
      a.disk.seeks != b.disk.seeks ||
      a.buffer.logical_reads != b.buffer.logical_reads ||
      a.buffer.evictions != b.buffer.evictions ||
      a.ssm.updates != b.ssm.updates || a.ssm.regroups != b.ssm.regroups ||
      a.ism.updates != b.ism.updates ||
      a.admission.admitted != b.admission.admitted ||
      a.admission.queued != b.admission.queued ||
      a.sojourn.p99 != b.sojourn.p99 || a.queue_wait.p99 != b.queue_wait.p99) {
    return false;
  }
  for (size_t j = 0; j < a.jobs.size(); ++j) {
    const service::JobRecord& ja = a.jobs[j];
    const service::JobRecord& jb = b.jobs[j];
    if (ja.query != jb.query || ja.table != jb.table || ja.shed != jb.shed ||
        ja.arrival != jb.arrival || ja.admit_at != jb.admit_at ||
        ja.end != jb.end || !metrics::BitIdentical(ja.output, jb.output)) {
      return false;
    }
  }
  return true;
}

/// Jobs of `r` that did not complete: shed, or never finished. A run that
/// breaks admission's conservation law fails every job.
uint64_t FailedJobs(const service::ServiceResult& r) {
  const service::AdmissionStats& a = r.admission;
  if (a.arrived != a.admitted + a.queued + a.shed) return a.arrived;
  return a.shed + (a.arrived - std::min<uint64_t>(a.arrived, r.sojourn.count));
}

/// The query template behind a service job's name, bound to the first
/// table of the right kind (heap or MDC).
StatusOr<exec::QuerySpec> ServiceTemplate(
    const std::string& name, const std::vector<service::ServiceTable>& tables) {
  const service::ServiceTable* heap = nullptr;
  const service::ServiceTable* mdc = nullptr;
  for (const service::ServiceTable& t : tables) {
    if (t.mdc && mdc == nullptr) mdc = &t;
    if (!t.mdc && heap == nullptr) heap = &t;
  }
  if (heap != nullptr) {
    if (name == "Q1") return workload::MakeQ1Like(heap->name);
    if (name == "Q6") return workload::MakeQ6Like(heap->name);
    if (name == "R") return workload::MakeRangeScan(heap->name, 0.0, 1.0, "R");
    if (name == "QM") return workload::MakeMidWeight(heap->name);
  }
  if (mdc != nullptr) {
    if (name == "XQ6") {
      return workload::MakeIndexQ6Like(mdc->name, mdc->key_min, mdc->key_max);
    }
    if (name == "XQ1") {
      return workload::MakeIndexHeavy(mdc->name, mdc->key_min, mdc->key_max);
    }
  }
  return Status::NotFound("no replay template for service query " + name);
}

bool RunService(const Options& opt, Outcome* out) {
  ServiceCase c;
  if (!SetUp([&] { return BuildServiceCase(opt.seed, opt.smoke); }, out, &c)) {
    return false;
  }
  service::ScanService svc(c.db.get());

  StatusOr<service::ServiceResult> warm = svc.Run(c.options, c.tables);
  if (!warm.ok()) {
    std::fprintf(stderr, "warm-up run failed: %s\n",
                 warm.status().ToString().c_str());
    return false;
  }
  const service::ServiceResult reference = *std::move(warm);
  const service::AdmissionStats& a = reference.admission;
  const uint64_t failed_jobs = FailedJobs(reference);
  Gate(out, "admission_conserved",
       a.arrived == a.admitted + a.queued + a.shed && a.shed == 0 &&
           reference.sojourn.count == a.arrived,
       "arrived " + std::to_string(a.arrived) + ", admitted " +
           std::to_string(a.admitted) + ", queued " + std::to_string(a.queued) +
           ", shed " + std::to_string(a.shed) + ", completed " +
           std::to_string(reference.sojourn.count));
  out->attempted += a.arrived;
  out->failed += failed_jobs;

  const auto check_rep = [&](const StatusOr<service::ServiceResult>& r) {
    out->attempted += a.arrived;
    const bool same = r.ok() && SameServiceRun(*r, reference);
    out->failed += same ? failed_jobs : a.arrived;
    return same;
  };

  bool reps_identical = true;
  MeasureFor(opt.seconds, MinReps(opt), &out->wall_s, [&] {
    reps_identical &= check_rep(svc.Run(c.options, c.tables));
  });
  Gate(out, "reps_identical", reps_identical);

  if (opt.trace) {
    // ScanService assembles its engine internally, so this workload has
    // no decorated seams yet: the traced repetitions are timed whole and
    // the median is split into the kernel estimate and the remainder.
    std::vector<double> traced_walls;
    bool traced_identical = true;
    for (size_t i = 0; i < TracedReps(opt); ++i) {
      const Clock::time_point t0 = Clock::now();
      const StatusOr<service::ServiceResult> traced =
          svc.Run(c.options, c.tables);
      traced_walls.push_back(SecondsBetween(t0, Clock::now()));
      traced_identical &= check_rep(traced);
    }
    Gate(out, "traced_identical", traced_identical);
    const double traced_wall = Median(traced_walls);

    TemplateTuples templates;
    Counters counters;
    for (const service::JobRecord& job : reference.jobs) {
      if (job.shed) continue;
      auto it = templates.find(job.query);
      if (it == templates.end()) {
        StatusOr<exec::QuerySpec> spec = ServiceTemplate(job.query, c.tables);
        if (!spec.ok()) {
          std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
          return false;
        }
        it = templates.emplace(job.query, std::make_pair(*spec, 0)).first;
      }
      it->second.second += job.metrics.tuples_scanned;
      counters.tuples_scanned += job.metrics.tuples_scanned;
    }
    StatusOr<KernelEstimate> kernel = EstimateKernel(c.db.get(), templates);
    if (!kernel.ok()) {
      std::fprintf(stderr, "kernel replay failed: %s\n",
                   kernel.status().ToString().c_str());
      return false;
    }
    AddTimeLayers(LayerClock(), *kernel, traced_wall, Median(out->wall_s), out);
    counters.steps = reference.steps;
    counters.buffer = reference.buffer;
    counters.ssm = reference.ssm;
    counters.max_running = a.max_running;
    counters.queued = a.queued;
    counters.queue_wait_p99_ms =
        static_cast<double>(reference.queue_wait.p99) * 1e-3;
    AddCounterLayers(counters, out);
  }

  out->virtual_results =
      VirtualMetrics(reference.makespan, reference.disk, reference.sojourn);
  return true;
}

// ---------------------------------------------------------------- output

void PrintMetrics(const std::string& workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-16s %-32s %18.9g %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  Outcome out;
  const bool ran = IsServiceWorkload(opt.workload) ? RunService(opt, &out)
                                                   : RunEngine(opt, &out);
  if (!ran) return 1;

  out.end_to_end = {{"wall_s", Median(out.wall_s), "s"},
                    {"setup_s", Median(out.setup_s), "s"},
                    {"peak_rss_mb", PeakRssMiB(), "MiB"}};
  if (opt.trace) {
    out.layers.insert(out.layers.end(), out.virtual_results.begin(),
                      out.virtual_results.end());
  }

  PrintMetrics(opt.workload, out.end_to_end);
  PrintMetrics(opt.workload, opt.trace ? out.layers : out.virtual_results);
  const double failed_frac = Ratio(out.failed, out.attempted);
  const double wall_iqr =
      Quantile(out.wall_s, 0.75) - Quantile(out.wall_s, 0.25);
  std::printf("%-16s reps %zu (wall IQR %.4f s), set-up builds %zu, "
              "attempted %llu, failed %llu (%.4f)\n",
              opt.workload.c_str(), out.wall_s.size(), wall_iqr,
              out.setup_s.size(),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), failed_frac);

  bool written = true;
  if (!opt.out_dir.empty()) {
    std::string gates = "{";
    for (const auto& [name, ok] : out.gates) {
      if (gates.size() > 1) gates += ", ";
      gates += JsonString(name) + ": " + (ok ? "true" : "false");
    }
    gates += "}";
    const std::string common =
        "\"workload\": " + JsonString(opt.workload) +
        ", \"seed\": " + std::to_string(opt.seed) +
        ", \"smoke\": " + (opt.smoke ? "true" : "false") +
        ", \"seconds\": " + JsonNumber(opt.seconds) +
        ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
    written &= WriteFile(
        opt.out_dir + "/" + opt.workload + ".json",
        "{" + common + ", \"correct\": " + (out.correct() ? "true" : "false") +
            ", \"attempted\": " + std::to_string(out.attempted) +
            ", \"failed\": " + std::to_string(out.failed) +
            ", \"failed_frac\": " + JsonNumber(failed_frac) +
            ", \"gates\": " + gates +
            ", \"wall_reps\": " + std::to_string(out.wall_s.size()) +
            ", \"wall_iqr_s\": " + JsonNumber(wall_iqr) +
            ", \"samples\": {\"wall_s\": " + ArrayJson(out.wall_s) +
            ", \"setup_s\": " + ArrayJson(out.setup_s) +
            "}, \"metrics\": " + MetricsJson(out.end_to_end) +
            ", \"virtual\": " + MetricsJson(out.virtual_results) +
            ", \"baseline\": " + MetricsJson(out.baseline) + "}");
    if (opt.trace) {
      written &= WriteFile(opt.out_dir + "/" + opt.workload + ".layers.json",
                           "{" + common + ", \"metrics\": " +
                               MetricsJson(out.layers) +
                               ", \"templates\": " + out.templates_json + "}");
    }
  }

  const bool correct = out.correct() && written;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(opt.trace ? out.layers : out.end_to_end).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace scanshare::benchmark

int main(int argc, char** argv) {
  return scanshare::benchmark::Main(argc, argv);
}
