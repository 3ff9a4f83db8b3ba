#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/thread_pool.h"

namespace scanshare::bench {

namespace {

[[noreturn]] void Usage(const char* flag) {
  std::fprintf(stderr,
               "unknown or malformed flag: %s\n"
               "flags: --pages=N --streams=N --queries=N --seed=N --bp=F "
               "--extent=N --stagger-ms=N --csv=PATH --json=PATH "
               "--trace-out=PATH --warmup=N --reps=N (N >= 2) --jobs=N "
               "--smoke\n",
               flag);
  std::exit(2);
}

bool ParseUint(const char* arg, const char* name, uint64_t* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  char* end = nullptr;
  *out = std::strtoull(arg + len, &end, 10);
  if (end == arg + len || *end != '\0') Usage(arg);
  return true;
}

bool ParseDouble(const char* arg, const char* name, double* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  char* end = nullptr;
  *out = std::strtod(arg + len, &end);
  if (end == arg + len || *end != '\0') Usage(arg);
  return true;
}

}  // namespace

BenchConfig ParseFlags(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t streams = 0, queries = 0;
    if (ParseUint(arg, "--pages=", &config.pages) ||
        ParseUint(arg, "--seed=", &config.seed) ||
        ParseUint(arg, "--extent=", &config.extent_pages) ||
        ParseUint(arg, "--stagger-ms=", &config.stagger_ms) ||
        ParseDouble(arg, "--bp=", &config.bp_fraction)) {
      continue;
    }
    if (ParseUint(arg, "--streams=", &streams)) {
      config.streams = static_cast<size_t>(streams);
      continue;
    }
    if (ParseUint(arg, "--queries=", &queries)) {
      config.queries_per_stream = static_cast<size_t>(queries);
      continue;
    }
    if (std::strncmp(arg, "--csv=", 6) == 0) {
      config.csv_prefix = arg + 6;
      continue;
    }
    if (std::strncmp(arg, "--json=", 7) == 0) {
      config.json_path = arg + 7;
      continue;
    }
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      config.trace_path = arg + 12;
      continue;
    }
    uint64_t warmup = 0, reps = 0, jobs = 0;
    if (ParseUint(arg, "--warmup=", &warmup)) {
      config.warmup = static_cast<int>(warmup);
      continue;
    }
    if (ParseUint(arg, "--reps=", &reps)) {
      // One repetition has no variance estimate; refuse to pretend.
      if (reps < 2) Usage(arg);
      config.reps = static_cast<int>(reps);
      continue;
    }
    if (ParseUint(arg, "--jobs=", &jobs)) {
      config.jobs = static_cast<int>(jobs);
      continue;
    }
    if (std::strcmp(arg, "--smoke") == 0) {
      // Tiny workload so CI can exercise every bench binary end to end.
      // Flags appearing after --smoke still override these.
      config.smoke = true;
      config.pages = 256;
      config.streams = 2;
      config.queries_per_stream = 2;
      config.warmup = 0;
      config.reps = 2;
      continue;
    }
    // Tolerate google-benchmark style flags so `for b in bench/*` works.
    if (std::strncmp(arg, "--benchmark", 11) == 0) continue;
    Usage(arg);
  }
  return config;
}

std::unique_ptr<exec::Database> BuildDatabase(const BenchConfig& config) {
  auto db = std::make_unique<exec::Database>();
  auto info = workload::GenerateLineitem(
      db->catalog(), "lineitem", workload::LineitemRowsForPages(config.pages),
      config.seed);
  if (!info.ok()) {
    std::fprintf(stderr, "failed to load lineitem: %s\n",
                 info.status().ToString().c_str());
    std::exit(1);
  }
  return db;
}

exec::RunConfig MakeRunConfig(const exec::Database& db, const BenchConfig& config,
                              exec::ScanMode mode) {
  exec::RunConfig c;
  c.mode = mode;
  c.buffer.num_frames =
      db.FramesForFraction(config.bp_fraction, config.extent_pages);
  c.buffer.prefetch_extent_pages = config.extent_pages;
  c.series_bucket = sim::Millis(100);
  // Event tracing is captured on the shared run only: that is the run whose
  // lifecycle (grouping, throttling, priorities) the trace exists to show.
  if (mode == exec::ScanMode::kShared && !config.trace_path.empty()) {
    c.trace.enabled = true;
  }
  return c;
}

size_t EffectiveJobs(const BenchConfig& config) {
  if (config.jobs > 0) return static_cast<size_t>(config.jobs);
  return ThreadPool::HardwareConcurrency();
}

void RunEach(const BenchConfig& config,
             const std::vector<DatabaseFactory>& factories,
             const std::vector<size_t>& factory_of,
             const std::function<Status(exec::Database*, size_t)>& run) {
  const size_t n = factory_of.size();
  std::vector<Status> statuses(n, Status::OK());
  const size_t workers = std::min(EffectiveJobs(config), n);
  if (workers <= 1) {
    // Sequential driver: one database per factory, runs executed in job
    // order.
    std::vector<std::unique_ptr<exec::Database>> dbs(factories.size());
    for (size_t i = 0; i < n; ++i) {
      std::unique_ptr<exec::Database>& db = dbs[factory_of[i]];
      if (db == nullptr) db = factories[factory_of[i]]();
      statuses[i] = run(db.get(), i);
      if (!statuses[i].ok()) break;
    }
  } else {
    // Parallel driver: every job gets a private database (each factory is
    // deterministic, so all its copies are identical). No state is shared
    // between jobs.
    ThreadPool pool(workers);
    pool.ParallelFor(n, [&](size_t i) {
      std::unique_ptr<exec::Database> db = factories[factory_of[i]]();
      statuses[i] = run(db.get(), i);
    });
  }
  // Report the first failure in job order — deterministic regardless of
  // which worker hit it first.
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      std::fprintf(stderr, "run %zu failed: %s\n", i,
                   statuses[i].ToString().c_str());
      std::exit(1);
    }
  }
}

std::vector<exec::RunResult> RunJobs(const BenchConfig& config,
                                     const DatabaseFactory& factory,
                                     const std::vector<RunJob>& jobs) {
  std::vector<exec::RunResult> results(jobs.size());
  RunEach(config, {factory}, std::vector<size_t>(jobs.size(), 0),
          [&](exec::Database* db, size_t i) -> Status {
            SCANSHARE_ASSIGN_OR_RETURN(
                results[i], db->Run(jobs[i].run, jobs[i].streams));
            return Status::OK();
          });
  return results;
}

sim::Micros StaggerMicros(const BenchConfig& config) {
  if (config.stagger_ms != 0) return sim::Millis(config.stagger_ms);
  // 10 % of a single I/O-bound scan: pages x transfer / 10.
  const sim::DiskOptions disk;
  return static_cast<sim::Micros>(config.pages) *
         disk.transfer_micros_per_page / 10;
}

void PrintHeader(const std::string& title, const exec::Database& db,
                 const BenchConfig& config) {
  const uint64_t total = db.catalog()->TotalTablePages();
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "db: %llu pages (%.1f MiB) | bufferpool: %zu pages (%.1f%% of db) | "
      "extent: %llu pages | seed: %llu\n",
      static_cast<unsigned long long>(total),
      static_cast<double>(total) * 32.0 / 1024.0,
      db.FramesForFraction(config.bp_fraction, config.extent_pages),
      config.bp_fraction * 100.0,
      static_cast<unsigned long long>(config.extent_pages),
      static_cast<unsigned long long>(config.seed));
}

double WallMeasurement::best_seconds() const {
  double best = 0.0;
  for (double s : rep_seconds) {
    if (best == 0.0 || s < best) best = s;
  }
  return best;
}

double WallMeasurement::mean_seconds() const {
  if (rep_seconds.empty()) return 0.0;
  double sum = 0.0;
  for (double s : rep_seconds) sum += s;
  return sum / static_cast<double>(rep_seconds.size());
}

double WallMeasurement::stddev_seconds() const {
  if (rep_seconds.size() < 2) return 0.0;
  const double mean = mean_seconds();
  double sq = 0.0;
  for (double s : rep_seconds) sq += (s - mean) * (s - mean);
  return std::sqrt(sq / static_cast<double>(rep_seconds.size()));
}

double WallMeasurement::ops_per_sec() const {
  const double best = best_seconds();
  return best > 0.0 ? ops / best : 0.0;
}

WallMeasurement MeasureWall(std::string name, double ops_per_rep, int warmup,
                            int reps, const std::function<uint64_t()>& fn) {
  if (reps < 2) {
    std::fprintf(stderr,
                 "MeasureWall(%s): reps=%d has no variance estimate; use >= 2\n",
                 name.c_str(), reps);
    std::exit(2);
  }
  WallMeasurement m;
  m.name = std::move(name);
  m.ops = ops_per_rep;
  m.warmup = warmup;
  for (int i = 0; i < warmup; ++i) m.checksum ^= fn();
  m.rep_seconds.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    m.checksum ^= fn();
    const auto stop = std::chrono::steady_clock::now();
    m.rep_seconds.push_back(
        std::chrono::duration<double>(stop - start).count());
  }
  return m;
}

void PrintWall(const WallMeasurement& m) {
  std::printf(
      "%-28s %12.3e ops/s  (best %.3f ms, mean %.3f ms, sd %.3f ms, %zu reps)\n",
      m.name.c_str(), m.ops_per_sec(), m.best_seconds() * 1e3,
      m.mean_seconds() * 1e3, m.stddev_seconds() * 1e3, m.rep_seconds.size());
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string RenderDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Indent(int n) { return std::string(static_cast<size_t>(n), ' '); }

/// Re-indents a pre-rendered multi-line JSON fragment so nested objects
/// line up under their key.
std::string Reindent(const std::string& raw, int indent) {
  std::string out;
  for (size_t i = 0; i < raw.size(); ++i) {
    out += raw[i];
    if (raw[i] == '\n' && i + 1 < raw.size()) out += Indent(indent);
  }
  return out;
}

}  // namespace

JsonObject& JsonObject::Put(const std::string& key, double value) {
  fields_.emplace_back(key, RenderDouble(value));
  return *this;
}

JsonObject& JsonObject::Put(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Put(const std::string& key, int value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Put(const std::string& key, const std::string& value) {
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted += '"';
  quoted += JsonEscape(value);
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
  return *this;
}

JsonObject& JsonObject::PutRaw(const std::string& key, const std::string& raw) {
  fields_.emplace_back(key, raw);
  return *this;
}

std::string JsonObject::ToString(int indent) const {
  if (fields_.empty()) return "{}";
  std::string out = "{\n";
  for (size_t i = 0; i < fields_.size(); ++i) {
    out += Indent(indent + 2);
    out += '"';
    out += JsonEscape(fields_[i].first);
    out += "\": ";
    out += Reindent(fields_[i].second, indent + 2);
    if (i + 1 < fields_.size()) out += ",";
    out += "\n";
  }
  out += Indent(indent) + "}";
  return out;
}

std::string JsonArray(const std::vector<std::string>& elements, int indent) {
  if (elements.empty()) return "[]";
  std::string out = "[\n";
  for (size_t i = 0; i < elements.size(); ++i) {
    out += Indent(indent + 2);
    out += Reindent(elements[i], indent + 2);
    if (i + 1 < elements.size()) out += ",";
    out += "\n";
  }
  out += Indent(indent) + "]";
  return out;
}

std::string WallToJson(const WallMeasurement& m, int indent) {
  std::vector<std::string> reps;
  reps.reserve(m.rep_seconds.size());
  for (double s : m.rep_seconds) reps.push_back(RenderDouble(s));
  JsonObject obj;
  obj.Put("name", m.name)
      .Put("ops_per_rep", m.ops)
      .Put("warmup", m.warmup)
      .Put("reps", static_cast<uint64_t>(m.rep_seconds.size()))
      .Put("best_seconds", m.best_seconds())
      .Put("mean_seconds", m.mean_seconds())
      .Put("stddev_seconds", m.stddev_seconds())
      .Put("ops_per_sec", m.ops_per_sec())
      .PutRaw("rep_seconds", JsonArray(reps));
  return obj.ToString(indent);
}

void WriteFileOrDie(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace scanshare::bench
