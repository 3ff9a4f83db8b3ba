// bench_paper — the paper's evaluation (EXPERIMENTS.md E1–E8, A1–A11, V1,
// X1, X2) from one table of experiments.
//
// Each row of kExperiments names its database, the labelled runs it reads
// and a print step. A run label is unique across the table, so rows that
// read the same run share it: E4–E7, A2, A6 and A9 print from E1's
// base/shared pair, which executes once. The selected rows' runs go
// through one RunEach pool, each on a database of its row's kind: engine
// runs through Database::Run, A11's scan-service runs through
// ScanService::Run.
//
//   bench_paper [--exp=E1,A9] [flags of bench_common.h]
//
// --exp=ID[,ID...] picks experiments (default: every row).
// --json=PATH writes BENCH_paper.json: for each engine run its
//   CollectRunMetrics samples, per-stream elapsed times, per-template mean
//   times and CPU split; for each service run its CollectServiceMetrics
//   samples; for each experiment its rows (printed name, run label). The
//   CPU split feeds EXPERIMENTS.md's E2/E3 cells. Every value is virtual
//   time or a count, so the file is byte-identical on every host, build
//   type and --jobs value (scripts/paper_drift.py pins it). A10's push-file
//   arm reads a table image written beside PATH and removed at exit.
// --trace-out=PATH writes PATH.<run label> (+ .scans.csv, .metrics.json)
//   for each traced run: every shared-mode run is traced.
// --csv=PREFIX writes E4's and E5's series as
//   PREFIX_{reads,seeks}_over_time.csv.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.h"
#include "io/file_backend.h"
#include "metrics/metrics_export.h"
#include "obs/export.h"
#include "service/scan_service.h"
#include "service/service_metrics.h"
#include "workload/mdc_gen.h"

namespace scanshare::bench {
namespace {

using exec::RunResult;
using exec::ScanMode;
using exec::StreamSpec;

// ------------------------------------------------------------- databases

enum class DbKind { kLineitem, kTwoTable, kMdc, kPushIo, kService };

/// The follow-up paper's MDC layout: 4 regions, quarterly time keys, one
/// block per prefetch extent.
workload::MdcOptions MdcLayout(const BenchConfig& config) {
  workload::MdcOptions mdc;
  mdc.block_pages = static_cast<uint32_t>(config.extent_pages);
  mdc.num_regions = 4;
  mdc.days_per_key = 90;  // 29 quarter keys.
  return mdc;
}

[[noreturn]] void LoadFailed(const char* table, const Status& status) {
  std::fprintf(stderr, "failed to load %s: %s\n", table,
               status.ToString().c_str());
  std::exit(1);
}

/// A11's tables: --pages is the total data volume, split across the
/// service's 8 Zipf-popular tables, every 4th of them MDC.
service::WorkloadSpec ServiceWorkload(const BenchConfig& config) {
  service::WorkloadSpec w;
  w.num_tables = 8;
  w.mdc_every = 4;
  w.pages_per_table = std::max<uint64_t>(32, config.pages / w.num_tables);
  w.zipf_theta = 0.99;
  w.seed = config.seed;
  return w;
}

/// Deterministic per kind, so RunEach may build one private copy per job.
/// For kService, `tables` (when given) receives the service's tables; they
/// are the same for every copy.
std::unique_ptr<exec::Database> BuildDb(
    DbKind kind, const BenchConfig& config,
    std::vector<service::ServiceTable>* tables = nullptr) {
  if (kind == DbKind::kService) {
    auto db = std::make_unique<exec::Database>();
    auto built = service::BuildServiceTables(db->catalog(),
                                             ServiceWorkload(config));
    if (!built.ok()) LoadFailed("the service tables", built.status());
    if (tables != nullptr) *tables = *std::move(built);
    return db;
  }
  if (kind == DbKind::kMdc) {
    auto db = std::make_unique<exec::Database>();
    auto info = workload::GenerateMdcLineitem(
        db->catalog(), "mdc", workload::MdcLineitemRowsForPages(config.pages),
        config.seed, MdcLayout(config));
    if (!info.ok()) LoadFailed("mdc", info.status());
    return db;
  }
  auto db = BuildDatabase(config);
  if (kind == DbKind::kTwoTable) {
    // orders at ~1/4 the lineitem size (the TPC-H ratio).
    auto orders = workload::GenerateOrders(
        db->catalog(), "orders",
        workload::LineitemRowsForPages(config.pages / 4), config.seed + 1);
    if (!orders.ok()) LoadFailed("orders", orders.status());
  }
  if (kind == DbKind::kPushIo) {
    // A10's second table, lineitem's size under another seed: its Q6
    // group and lineitem's Q1 scan pull the disk arm between two tables.
    auto orders = workload::GenerateLineitem(
        db->catalog(), "orders_like",
        workload::LineitemRowsForPages(config.pages), config.seed + 1);
    if (!orders.ok()) LoadFailed("orders_like", orders.status());
  }
  return db;
}

/// A file removed when the process exits, through std::exit too.
struct TableImage {
  TableImage() = default;
  TableImage(const TableImage&) = delete;
  TableImage& operator=(const TableImage&) = delete;
  ~TableImage() { std::remove(path.c_str()); }
  std::string path;
};

/// A10's push-file arm reads a flat image of its database. The factory's
/// copies are identical, so one image serves every job. It is written
/// beside the --json output under a per-process name.
std::string WriteTableImage(exec::Database& db, const BenchConfig& config) {
  static TableImage image;
  image.path = (std::filesystem::path(config.json_path).parent_path() /
                ("bench_paper." + std::to_string(::getpid()) + ".img"))
                   .string();
  const Status written =
      io::FileIoBackend::WriteTableFile(*db.disk_manager(), image.path);
  if (!written.ok()) LoadFailed("the table image", written);
  return image.path;
}

// ------------------------------------------------------------ experiments

/// One run an experiment reads: the name its table prints, the run's label
/// (rows with equal labels are the same run) and its job. A11's rows set
/// `service` instead of `job`: a ScanService run over the service tables.
struct Row {
  std::string name;
  std::string label;
  RunJob job;
  std::optional<service::ServiceOptions> service = std::nullopt;
};

/// What a row builder sees: the experiment's database (for pool sizing and
/// A10's table image) and the flags.
struct Ctx {
  exec::Database& db;
  const BenchConfig& config;
};

/// A finished row, as a print step and a run table see it. `base` is the
/// reference of the gain columns (none by default). Service rows have
/// `service` instead of `run`.
struct Ran {
  std::string name;
  const RunResult* run;
  const RunResult* base = nullptr;
  const service::ServiceResult* service = nullptr;
};

struct Experiment {
  const char* id;
  const char* title;
  DbKind db;
  std::function<std::vector<Row>(const Ctx&)> rows;
  std::function<void(const Ctx&, std::vector<Ran>)> print;
};

RunJob Job(const Ctx& c, ScanMode mode, std::vector<StreamSpec> streams) {
  return RunJob{MakeRunConfig(c.db, c.config, mode), std::move(streams)};
}

/// Table 1's five-stream permuted mix over lineitem.
std::vector<StreamSpec> ThroughputStreams(const BenchConfig& config) {
  return workload::MakeThroughputStreams(
      workload::DefaultQueryMix("lineitem"), config.streams,
      config.queries_per_stream, config.seed);
}

/// A base/shared pair labelled `prefix`.base and `prefix`.shared.
std::vector<Row> Pair(const Ctx& c, const std::string& prefix,
                      const std::vector<StreamSpec>& streams) {
  return {{"Base", prefix + ".base", Job(c, ScanMode::kBaseline, streams)},
          {"SS", prefix + ".shared", Job(c, ScanMode::kShared, streams)}};
}

/// E1's base/shared pair, the run most experiments read.
std::vector<Row> ThroughputPair(const Ctx& c) {
  return Pair(c, "E1", ThroughputStreams(c.config));
}

/// The speed-skewed pair of A1/A3/A4/A8: a fast Q6 stream (at throttle
/// tolerance `q6_tolerance`) and a slow Q1 stream start together.
std::vector<StreamSpec> SkewedStreams(const BenchConfig& config,
                                      double q6_tolerance = 1.0) {
  std::vector<StreamSpec> streams(2);
  exec::QuerySpec q6 = workload::MakeQ6Like("lineitem");
  q6.throttle_tolerance = q6_tolerance;
  streams[0].queries.assign(config.queries_per_stream, q6);
  streams[1].queries.assign(config.queries_per_stream,
                            workload::MakeQ1Like("lineitem"));
  return streams;
}

void PrintStreamsLine(const BenchConfig& config, const char* suffix) {
  std::printf("streams: %zu x %zu queries%s\n", config.streams,
              config.queries_per_stream, suffix);
}

// ------------------------------------------------------------ run tables

struct Column {
  std::string header;
  std::function<std::string(const Ran&)> cell;
};

/// Prints a row per run and a column per metric, right-aligned to the
/// widest cell.
void PrintRunTable(const std::string& name_header,
                   const std::vector<Column>& columns,
                   const std::vector<Ran>& rows) {
  std::vector<std::vector<std::string>> cells(rows.size());
  size_t name_width = name_header.size();
  std::vector<size_t> widths;
  for (const Column& c : columns) widths.push_back(c.header.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    name_width = std::max(name_width, rows[r].name.size());
    for (size_t c = 0; c < columns.size(); ++c) {
      cells[r].push_back(columns[c].cell(rows[r]));
      widths[c] = std::max(widths[c], cells[r].back().size());
    }
  }
  const int nw = static_cast<int>(name_width);
  std::printf("  %-*s", nw, name_header.c_str());
  for (size_t c = 0; c < columns.size(); ++c) {
    std::printf("  %*s", static_cast<int>(widths[c]),
                columns[c].header.c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < rows.size(); ++r) {
    std::printf("  %-*s", nw, rows[r].name.c_str());
    for (size_t c = 0; c < columns.size(); ++c) {
      std::printf("  %*s", static_cast<int>(widths[c]), cells[r][c].c_str());
    }
    std::printf("\n");
  }
}

std::string Count(uint64_t v) { return std::to_string(v); }

double HitRate(const RunResult& run) {
  return run.buffer.logical_reads > 0
             ? static_cast<double>(run.buffer.hits) /
                   static_cast<double>(run.buffer.logical_reads)
             : 0.0;
}

const Column kEndToEnd{"end-to-end", [](const Ran& r) {
                         return FormatMicros(r.run->makespan);
                       }};
const Column kPagesRead{"pages read", [](const Ran& r) {
                          return Count(r.run->disk.pages_read);
                        }};
const Column kSeeks{"seeks",
                    [](const Ran& r) { return Count(r.run->disk.seeks); }};
const Column kHits{"buffer hits",
                   [](const Ran& r) { return Count(r.run->buffer.hits); }};
const Column kHitRate{"hit rate", [](const Ran& r) {
                        return FormatPercent(HitRate(*r.run));
                      }};
const Column kThrottleWait{"throttle wait", [](const Ran& r) {
                             return FormatMicros(r.run->ssm.total_wait);
                           }};
const Column kE2eGain{"e2e gain", [](const Ran& r) {
                        if (r.base == nullptr) return std::string("-");
                        return FormatPercent(metrics::Gain(
                            static_cast<double>(r.base->makespan),
                            static_cast<double>(r.run->makespan)));
                      }};
const Column kReadGain{"read gain", [](const Ran& r) {
                         if (r.base == nullptr) return std::string("-");
                         return FormatPercent(metrics::Gain(
                             static_cast<double>(r.base->disk.pages_read),
                             static_cast<double>(r.run->disk.pages_read)));
                       }};

/// A column of one count, read from a row by `get`.
template <typename Get>
Column CountColumn(std::string header, Get get) {
  return {std::move(header), [get](const Ran& r) { return Count(get(r)); }};
}

Column StreamElapsed(std::string header, size_t stream) {
  return {std::move(header), [stream](const Ran& r) {
            return FormatMicros(r.run->streams[stream].Elapsed());
          }};
}

// ------------------------------------------------------- the experiments

void PrintCpuFigure(const char* title, const char* query,
                    const std::vector<Ran>& ran) {
  std::vector<std::string> labels;
  for (const char* nth : {"1st", "2nd", "3rd"}) {
    labels.push_back(std::string(nth) + " " + query);
  }
  metrics::PrintCpuUsageFigure(
      title, metrics::ComputeCpuBreakdown(*ran[0].run),
      metrics::ComputeCpuBreakdown(*ran[1].run), labels,
      metrics::PerStreamElapsed(*ran[0].run),
      metrics::PerStreamElapsed(*ran[1].run));
}

void PrintStagger(const BenchConfig& config) {
  std::printf("stagger: %s\n\n", FormatMicros(StaggerMicros(config)).c_str());
}

/// E4/E5: one series of the throughput pair, plus its CSV under --csv.
void PrintSeries(const BenchConfig& config, const std::vector<Ran>& ran,
                 const char* title, const char* unit, bool reads) {
  const TimeSeries& base =
      reads ? ran[0].run->reads_over_time : ran[0].run->seeks_over_time;
  const TimeSeries& shared =
      reads ? ran[1].run->reads_over_time : ran[1].run->seeks_over_time;
  // Pages are 32 KiB; reads print MiB per bucket, like the figure's KB axis.
  metrics::PrintTimeSeriesPair(title, unit, base, shared, reads ? 32.0 : 1.0);
  if (config.csv_prefix.empty()) return;
  const std::string path =
      config.csv_prefix +
      (reads ? "_reads_over_time.csv" : "_seeks_over_time.csv");
  Status st = metrics::WriteTimeSeriesCsv(path, base, shared);
  std::printf("%s\n",
              st.ok() ? ("csv: " + path).c_str() : st.ToString().c_str());
}

/// The X1/X2 hot key ranges are stated against the MDC key count.
int64_t MdcKeys(const BenchConfig& config) {
  return workload::MdcNumTimeKeys(MdcLayout(config));
}

/// X2's mix: index scans of the hot year (I/O- and CPU-bound) and the hot
/// half, plus two full table scans over the same table.
std::vector<exec::QuerySpec> MdcMix(const BenchConfig& config) {
  const int64_t keys = MdcKeys(config);
  std::vector<exec::QuerySpec> mix;
  mix.push_back(workload::MakeIndexQ6Like("mdc", keys - 4, keys - 1));
  mix.push_back(workload::MakeIndexHeavy("mdc", keys - 4, keys - 1));
  mix.push_back(workload::MakeIndexCount("mdc", keys / 2, keys - 1, "XCH"));
  exec::QuerySpec full;
  full.name = "T1";
  full.table = "mdc";
  full.aggs.push_back(
      exec::AggSpec{"cnt", exec::AggOp::kCount, exec::Expr::Const(0.0)});
  full.aggs.push_back(exec::AggSpec{"sum_qty", exec::AggOp::kSum,
                                    exec::Expr::Column("l_quantity")});
  mix.push_back(full);
  exec::QuerySpec heavy = full;
  heavy.name = "T2";
  heavy.per_tuple_extra_ns = 1200.0;
  mix.push_back(heavy);
  return mix;
}

/// A10's mix across two tables: a batch Q1 stream over lineitem plus two
/// Q6 streams over orders_like, which form one sharing group. On one table
/// push is parity at best: a group's leader already absorbs the I/O its
/// trailers overlap, and the demand engine already overlaps a scan's
/// transfer with its CPU. With two groups on two tables, demand reads move
/// the arm between tables nearly every extent; the pipeline's burst
/// refills queue runs of sequential extents instead (DESIGN.md §15.2).
std::vector<StreamSpec> PushIoStreams(const BenchConfig& config) {
  const sim::Micros stagger = StaggerMicros(config);
  std::vector<StreamSpec> streams(3);
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

/// A11's four arrival processes through one admission configuration, far
/// above capacity at a nominal 300 jobs/s.
std::vector<Row> ServiceRows(const Ctx& c) {
  const BenchConfig& config = c.config;
  service::ServiceOptions base;
  base.workload = ServiceWorkload(config);
  base.arrival.num_jobs = config.smoke ? 150 : 2'000;
  base.arrival.rate_per_sec = 300.0;
  base.admission.global_cap = 48;
  base.admission.per_table_cap = 12;
  base.admission.queue_bound = 64;
  base.run.buffer.num_frames =
      std::max<size_t>(128, static_cast<size_t>(
                                config.bp_fraction *
                                static_cast<double>(config.pages)));
  base.run.buffer.prefetch_extent_pages = config.extent_pages;
  base.run.ssm.adaptive_regroup = true;  // The service-scale configuration.

  std::vector<Row> rows;
  const auto scenario = [&](const std::string& name, service::ArrivalKind kind,
                            uint64_t seed) -> service::ArrivalSpec& {
    rows.push_back({name, "A11." + name, {}, base});
    service::ArrivalSpec& arrival = rows.back().service->arrival;
    arrival.kind = kind;
    arrival.seed = config.seed + seed;
    return arrival;
  };
  scenario("fixed_rate", service::ArrivalKind::kFixedRate, 1);
  scenario("poisson_burst", service::ArrivalKind::kPoissonBurst, 2)
      .burst_factor = 8.0;
  scenario("diurnal", service::ArrivalKind::kDiurnal, 3).diurnal_amplitude =
      0.8;
  service::ArrivalSpec& closed =
      scenario("closed_loop", service::ArrivalKind::kClosedLoop, 4);
  closed.clients = 64;
  closed.think_time = 50'000;
  return rows;
}

/// A column of one service latency quantile or time.
Column ServiceTime(std::string header,
                   uint64_t (*get)(const service::ServiceResult&)) {
  return {std::move(header),
          [get](const Ran& r) { return FormatMicros(get(*r.service)); }};
}

const std::vector<double> kCaps = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
const std::vector<double> kPoolRatios = {0.01, 0.02, 0.05, 0.10, 0.20, 0.50};
const std::vector<double> kTolerances = {0.0, 0.25, 0.5, 1.0, 2.0};

std::string Printed(const char* format, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

const std::vector<Experiment>& Experiments() {
  static const std::vector<Experiment> kExperiments = {
      {"E1", "E1: Table 1 — multi-stream throughput gains", DbKind::kLineitem,
       ThroughputPair,
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStreamsLine(c.config, " (permuted mix)\n");
         PrintRunTable("", {kEndToEnd, kPagesRead, kSeeks}, ran);
         std::printf("\nTable 1. Performance results (%zu-stream run)\n",
                     c.config.streams);
         metrics::PrintThroughputGains(
             metrics::ComputeThroughputGains(*ran[0].run, *ran[1].run));
       }},
      {"E2", "E2: Figure 15 — 3 staggered Q6 streams (I/O intensive)",
       DbKind::kLineitem,
       [](const Ctx& c) {
         return Pair(c, "E2",
                     workload::MakeStaggeredStreams(
                         workload::MakeQ6Like("lineitem"), 3,
                         StaggerMicros(c.config)));
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStagger(c.config);
         PrintCpuFigure(
             "Figure 15. CPU usage stats and timings for 3 Q6 streams", "Q6",
             ran);
       }},
      {"E3", "E3: Figure 16 — 3 staggered Q1 streams (CPU intensive)",
       DbKind::kLineitem,
       [](const Ctx& c) {
         return Pair(c, "E3",
                     workload::MakeStaggeredStreams(
                         workload::MakeQ1Like("lineitem"), 3,
                         StaggerMicros(c.config)));
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStagger(c.config);
         PrintCpuFigure(
             "Figure 16. CPU usage stats and timings for 3 Q1 streams", "Q1",
             ran);
       }},
      {"E4", "E4: Figure 17 — disk reads over time", DbKind::kLineitem,
       ThroughputPair,
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStreamsLine(c.config, "\n");
         PrintSeries(c.config, ran, "Figure 17. Data read from disk over time",
                     "MiB read", /*reads=*/true);
       }},
      {"E5", "E5: Figure 18 — disk seeks over time", DbKind::kLineitem,
       ThroughputPair,
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStreamsLine(c.config, "\n");
         PrintSeries(c.config, ran, "Figure 18. Disk seeks over time", "seeks",
                     /*reads=*/false);
       }},
      {"E6", "E6: Figure 19 — per-stream gains", DbKind::kLineitem,
       ThroughputPair,
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStreamsLine(c.config, "\n");
         std::printf("Figure 19. Per-stream elapsed time\n");
         metrics::PrintPerStream(metrics::PerStreamElapsed(*ran[0].run),
                                 metrics::PerStreamElapsed(*ran[1].run));
       }},
      {"E7", "E7: Figure 20 — per-query gains", DbKind::kLineitem,
       ThroughputPair,
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStreamsLine(c.config, "\n");
         std::printf("Figure 20. Average per-query execution time\n");
         metrics::PrintPerQuery(metrics::PerQueryAverages(*ran[0].run),
                                metrics::PerQueryAverages(*ran[1].run));
       }},
      {"E8", "E8: single-stream overhead of the sharing infrastructure",
       DbKind::kLineitem,
       [](const Ctx& c) {
         StreamSpec stream;
         const auto mix = workload::DefaultQueryMix("lineitem");
         for (size_t i = 0; i < c.config.queries_per_stream; ++i) {
           stream.queries.push_back(mix[i % mix.size()]);
         }
         // The pure-overhead run keeps the SSM bookkeeping (registration,
         // per-extent updates, regrouping) but neutralizes every policy,
         // so its scan path is the baseline's plus the calls being costed.
         RunJob neutral = Job(c, ScanMode::kShared, {stream});
         neutral.run.ssm.enable_smart_placement = false;
         neutral.run.ssm.enable_throttling = false;
         neutral.run.ssm.enable_priority_hints = false;
         return std::vector<Row>{
             {"Base", "E8.base", Job(c, ScanMode::kBaseline, {stream})},
             {"SS (policies neutralized)", "E8.neutral", neutral},
             {"SS (full mechanism)", "E8.shared",
              Job(c, ScanMode::kShared, {stream})}};
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         std::printf("streams: 1 x %zu queries\n\n",
                     c.config.queries_per_stream);
         const Column calls{"SSM calls (start/update/end)", [](const Ran& r) {
                              return Count(r.run->ssm.updates +
                                           r.run->ssm.scans_started +
                                           r.run->ssm.scans_ended);
                            }};
         PrintRunTable("", {kEndToEnd, calls}, ran);
         // Slowdown of a run against the base run (+ = slower).
         const auto delta = [&ran](size_t i) {
           return FormatPercent(static_cast<double>(ran[i].run->makespan) /
                                    static_cast<double>(ran[0].run->makespan) -
                                1.0);
         };
         std::printf("\n  %-30s %8s\n", "Pure infrastructure overhead",
                     delta(1).c_str());
         std::printf("  %-30s %8s\n", "Full-mechanism delta", delta(2).c_str());
         std::printf(
             "\n(paper: overhead well below 1%%. A negative full-mechanism "
             "delta is\n the last-finished-scan placement harvesting leftover "
             "buffer pages\n between the stream's consecutive queries.)\n");
       }},
      {"A1", "A1: ablation — leader throttling on/off", DbKind::kLineitem,
       [](const Ctx& c) {
         // Heterogeneous speeds: a fast Q6 and a slow Q1 start together.
         const std::vector<StreamSpec> streams = SkewedStreams(c.config);
         RunJob off = Job(c, ScanMode::kShared, streams);
         off.run.ssm.enable_throttling = false;
         return std::vector<Row>{
             {"Base", "A1.base", Job(c, ScanMode::kBaseline, streams)},
             {"SS-no-throttle", "A1.no-throttle", off},
             {"SS", "A1.shared", Job(c, ScanMode::kShared, streams)}};
       },
       [](const Ctx&, std::vector<Ran> ran) {
         std::printf("\n");
         ran[1].base = ran[2].base = ran[0].run;
         PrintRunTable("",
                       {kEndToEnd, kPagesRead, kSeeks, kThrottleWait,
                        kReadGain},
                       ran);
       }},
      {"A2", "A2: ablation — release-priority hints on/off",
       DbKind::kLineitem,
       [](const Ctx& c) {
         std::vector<Row> rows = ThroughputPair(c);
         RunJob off = rows[1].job;
         off.run.ssm.enable_priority_hints = false;
         rows.insert(rows.begin() + 1, Row{"SS-no-hints", "A2.no-hints", off});
         return rows;
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStreamsLine(c.config, "\n");
         PrintRunTable("", {kEndToEnd, kPagesRead, kHits}, ran);
       }},
      {"A3", "A3: ablation — fairness-cap sweep", DbKind::kLineitem,
       [](const Ctx& c) {
         // Speed-skewed pair under pool pressure: throttling budget matters.
         std::vector<Row> rows;
         for (double cap : kCaps) {
           RunJob job = Job(c, ScanMode::kShared, SkewedStreams(c.config));
           job.run.ssm.fairness_cap = cap;
           const std::string name = Printed("%.1f", cap);
           rows.push_back({name, "A3.cap-" + name, std::move(job)});
         }
         return rows;
       },
       [](const Ctx&, const std::vector<Ran>& ran) {
         std::printf("\n");
         PrintRunTable("cap",
                       {kEndToEnd, kPagesRead, kThrottleWait,
                        StreamElapsed("fast-q6 time", 0)},
                       ran);
         std::printf("\n(paper default: 0.8)\n");
       }},
      {"A4", "A4: ablation — throttle distance threshold sweep",
       DbKind::kLineitem,
       [](const Ctx& c) {
         const uint64_t extent = c.config.extent_pages;
         std::vector<Row> rows;
         for (uint64_t t :
              {extent / 2, extent, 2 * extent, 4 * extent, 8 * extent}) {
           RunJob job = Job(c, ScanMode::kShared, SkewedStreams(c.config));
           job.run.ssm.distance_threshold_pages = std::max<uint64_t>(1, t);
           const std::string name = Count(job.run.ssm.distance_threshold_pages);
           rows.push_back({name, "A4.threshold-" + name, std::move(job)});
         }
         return rows;
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         std::printf("\n");
         PrintRunTable("threshold(pages)",
                       {kEndToEnd, kPagesRead, kThrottleWait}, ran);
         std::printf("\n(paper default: 2x prefetch extent = %llu pages)\n",
                     static_cast<unsigned long long>(
                         2 * std::max<uint64_t>(1, c.config.extent_pages)));
       }},
      {"A5", "A5: ablation — buffer-pool ratio sweep", DbKind::kLineitem,
       [](const Ctx& c) {
         const std::vector<StreamSpec> streams = ThroughputStreams(c.config);
         std::vector<Row> rows;
         for (double ratio : kPoolRatios) {
           BenchConfig sized = c.config;
           sized.bp_fraction = ratio;
           const Ctx at{c.db, sized};
           const std::string bp = FormatPercent(ratio);
           const std::string label = "A5.bp-" + Printed("%.2f", ratio);
           rows.push_back({bp + " Base", label + ".base",
                           Job(at, ScanMode::kBaseline, streams)});
           rows.push_back({bp + " SS", label + ".shared",
                           Job(at, ScanMode::kShared, streams)});
         }
         return rows;
       },
       [](const Ctx& c, std::vector<Ran> ran) {
         PrintStreamsLine(c.config, "\n");
         for (size_t i = 1; i < ran.size(); i += 2) {
           ran[i].base = ran[i - 1].run;
         }
         PrintRunTable("bp", {kEndToEnd, kPagesRead, kE2eGain, kReadGain}, ran);
         std::printf("\n(paper configuration: ~5%%)\n");
       }},
      {"A6", "A6: related-work ablation — cache policy vs coordination",
       DbKind::kLineitem,
       [](const Ctx& c) {
         std::vector<Row> pair = ThroughputPair(c);
         RunJob clock = pair[0].job, two_q = pair[0].job;
         clock.run.baseline_policy = exec::BaselinePolicy::kClock;
         two_q.run.baseline_policy = exec::BaselinePolicy::kTwoQ;
         return std::vector<Row>{{"LRU (vanilla)", pair[0].label, pair[0].job},
                                 {"CLOCK", "A6.clock", clock},
                                 {"2Q", "A6.2q", two_q},
                                 {"Scan sharing", pair[1].label, pair[1].job}};
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStreamsLine(c.config, "\n");
         PrintRunTable("engine", {kEndToEnd, kPagesRead, kSeeks, kHitRate},
                       ran);
         std::printf(
             "\n(paper §2: per-page policies cannot create inter-scan locality;\n"
             " only coordinating the scans can)\n");
       }},
      {"A7", "A7: multi-table mix — per-table scan grouping",
       DbKind::kTwoTable,
       [](const Ctx& c) {
         return Pair(c, "A7",
                     workload::MakeThroughputStreams(
                         workload::TwoTableQueryMix("lineitem", "orders"),
                         c.config.streams, c.config.queries_per_stream,
                         c.config.seed));
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         auto orders = c.db.catalog()->GetTable("orders");
         std::printf(
             "tables: lineitem + orders (%llu pages) | streams: %zu x %zu\n\n",
             static_cast<unsigned long long>((*orders)->num_pages),
             c.config.streams, c.config.queries_per_stream);
         PrintRunTable("", {kEndToEnd, kPagesRead, kSeeks}, ran);
         std::printf("\nper-query-template averages:\n");
         metrics::PrintPerQuery(metrics::PerQueryAverages(*ran[0].run),
                                metrics::PerQueryAverages(*ran[1].run));
         std::printf("\ngains:\n");
         metrics::PrintThroughputGains(
             metrics::ComputeThroughputGains(*ran[0].run, *ran[1].run));
       }},
      {"A8", "A8: extension — query-priority-aware throttling",
       DbKind::kLineitem,
       [](const Ctx& c) {
         std::vector<Row> rows;
         for (double tolerance : kTolerances) {
           const std::string name = Printed("%.2f", tolerance);
           rows.push_back({name, "A8.tolerance-" + name,
                           Job(c, ScanMode::kShared,
                               SkewedStreams(c.config, tolerance))});
         }
         return rows;
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         std::printf(
             "interactive stream: Q6 x %zu | background stream: Q1 x %zu\n\n",
             c.config.queries_per_stream, c.config.queries_per_stream);
         PrintRunTable("tolerance",
                       {StreamElapsed("interactive", 0),
                        StreamElapsed("background", 1),
                        {"makespan", kEndToEnd.cell}, kPagesRead},
                       ran);
         std::printf(
             "\n(tolerance 0: interactive scans never wait — lowest interactive\n"
             " latency, but less sharing; higher tolerance trades interactive\n"
             " latency for system throughput. Default 1.0 = the 80%% cap.)\n");
       }},
      {"A9", "A9: policy matrix — group-throttle vs ABM vs PBM",
       DbKind::kLineitem,
       [](const Ctx& c) {
         std::vector<Row> pair = ThroughputPair(c);
         std::vector<Row> rows = {
             {"LRU baseline", pair[0].label, pair[0].job},
             {PolicyKindName(PolicyKind::kGroupThrottle), pair[1].label,
              pair[1].job}};
         for (PolicyKind policy :
              {PolicyKind::kAbmRelevance, PolicyKind::kPbmPredictive}) {
           RunJob job = pair[1].job;
           job.run.policy = policy;
           rows.push_back({PolicyKindName(policy),
                           std::string("A9.") + PolicyKindName(policy), job});
         }
         return rows;
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStreamsLine(c.config, "\n");
         PrintRunTable("policy",
                       {kEndToEnd, kPagesRead, kSeeks, kHitRate,
                        {"wait", kThrottleWait.cell}},
                       ran);
         std::printf("\n  per-stream completion:\n");
         std::vector<Column> streams;
         for (size_t s = 0; s < c.config.streams; ++s) {
           streams.push_back(StreamElapsed("stream " + Count(s + 1), s));
         }
         PrintRunTable("policy", streams, ran);
         std::printf(
             "\n(identical workload/seed per row; the only varied input is the\n"
             " policy pair behind the SSM seam — DESIGN.md §13)\n");
       }},
      {"V1", "V1: time/location traces (paper Figures 7-9)", DbKind::kLineitem,
       [](const Ctx& c) {
         // Mixed speeds: two fast Q6 and one slower mid-weight scan.
         const sim::Micros stagger = StaggerMicros(c.config);
         std::vector<StreamSpec> streams(3);
         streams[0].queries.push_back(workload::MakeQ6Like("lineitem"));
         streams[1].start_delay = stagger;
         streams[1].queries.push_back(workload::MakeQ6Like("lineitem", 2));
         streams[2].start_delay = 2 * stagger;
         streams[2].queries.push_back(workload::MakeMidWeight("lineitem"));
         std::vector<Row> rows = Pair(c, "V1", streams);
         for (Row& row : rows) row.job.run.record_traces = true;
         return rows;
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         std::printf(
             "3 staggered scans (Q6, Q6, QM — mixed speeds), stagger %s\n\n",
             FormatMicros(StaggerMicros(c.config)).c_str());
         auto table = c.db.catalog()->GetTable("lineitem");
         metrics::PrintLocationTraces("Vanilla engine (scans drift apart):",
                                      *ran[0].run, (*table)->first_page,
                                      (*table)->num_pages);
         std::printf("\n");
         metrics::PrintLocationTraces("Scan sharing (placement + throttling):",
                                      *ran[1].run, (*table)->first_page,
                                      (*table)->num_pages);
         std::printf("\n");
         PrintRunTable("", {kEndToEnd, kPagesRead}, ran);
       }},
      {"X1", "X1: staggered block-index scans (ISM extension)", DbKind::kMdc,
       [](const Ctx& c) {
         // The "hot two years": the most recent 8 quarters. The stagger is
         // long enough that a follower starts after the leader's first
         // blocks have left the pool — the regime where the baseline
         // re-reads and placement pays off.
         const int64_t keys = MdcKeys(c.config);
         return Pair(c, "X1",
                     workload::MakeStaggeredStreams(
                         workload::MakeIndexQ6Like("mdc", keys - 8, keys - 1),
                         3, StaggerMicros(c.config)));
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         const int64_t keys = MdcKeys(c.config);
         std::printf(
             "3 staggered XQ6 over keys [%lld, %lld] of %lld | stagger %s\n\n",
             static_cast<long long>(keys - 8), static_cast<long long>(keys - 1),
             static_cast<long long>(keys),
             FormatMicros(StaggerMicros(c.config)).c_str());
         const Column placed{"SISCANs placed", [](const Ran& r) {
                               return Count(r.run->ism.scans_joined);
                             }};
         PrintRunTable("", {kEndToEnd, kPagesRead, kSeeks, placed}, ran);
         std::printf("\nper-run timings:\n");
         metrics::PrintPerStream(metrics::PerStreamElapsed(*ran[0].run),
                                 metrics::PerStreamElapsed(*ran[1].run));
       }},
      {"X2", "X2: mixed index/table-scan throughput (ISM extension)",
       DbKind::kMdc,
       [](const Ctx& c) {
         return Pair(c, "X2",
                     workload::MakeThroughputStreams(
                         MdcMix(c.config), c.config.streams,
                         c.config.queries_per_stream, c.config.seed));
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         PrintStreamsLine(c.config, " (index + table scan mix)\n");
         const Column placed{"scans placed (SSM+ISM)", [](const Ran& r) {
                               return Count(r.run->ssm.scans_joined) + "+" +
                                      Count(r.run->ism.scans_joined);
                             }};
         PrintRunTable("", {kEndToEnd, kPagesRead, kSeeks, placed}, ran);
         std::printf("\ngains (follow-up paper: 21%% / 33%% / 34%%):\n");
         metrics::PrintThroughputGains(
             metrics::ComputeThroughputGains(*ran[0].run, *ran[1].run));
         std::printf("\nper-query averages:\n");
         metrics::PrintPerQuery(metrics::PerQueryAverages(*ran[0].run),
                                metrics::PerQueryAverages(*ran[1].run));
       }},
      {"A10", "A10: push I/O pipeline — sync-sim vs push-sim vs push-file",
       DbKind::kPushIo,
       [](const Ctx& c) {
         // The arms differ only in io. Window depth 8: at the refill
         // low-water mark (depth / 4) each refill issues a run of ~5
         // sequential extents, deep enough to amortize the cross-table
         // seek and shallow enough that a regroup drops little work.
         RunJob sync = Job(c, ScanMode::kShared, PushIoStreams(c.config));
         RunJob push = sync;
         push.run.io.prefetch_depth = 8;
         RunJob file = push;
         file.run.io.backend = exec::IoOptions::Backend::kFile;
         file.run.io.file_path = WriteTableImage(c.db, c.config);
         return std::vector<Row>{{"sync-sim", "A10.sync-sim", sync},
                                 {"push-sim", "A10.push-sim", push},
                                 {"push-file", "A10.push-file", file}};
       },
       [](const Ctx& c, const std::vector<Ran>& ran) {
         std::printf(
             "streams: Q1 x %zu on lineitem | 2 x Q6 x %zu on orders_like, "
             "stagger %s\n\n",
             c.config.queries_per_stream, c.config.queries_per_stream,
             FormatMicros(StaggerMicros(c.config)).c_str());
         PrintRunTable(
             "arm",
             {kEndToEnd, kPagesRead, kSeeks,
              CountColumn("requests",
                          [](const Ran& r) { return r.run->disk.requests; }),
              CountColumn("prefetch hits",
                          [](const Ran& r) { return r.run->io.prefetch_hits; }),
              CountColumn("sync reads",
                          [](const Ran& r) { return r.run->io.sync_reads; }),
              CountColumn("real preads",
                          [](const Ran& r) { return r.run->real_io.reads; }),
              CountColumn("real pages",
                          [](const Ran& r) { return r.run->real_io.pages_read; }),
              CountColumn("real seeks",
                          [](const Ran& r) { return r.run->real_io.seeks; })},
             ran);
         std::printf(
             "\nvirtual makespan speedup (push-sim vs sync-sim): %.2fx\n"
             "(push-file equals push-sim in every virtual column; its real "
             "preads and pages\n equal its charges, its real seeks are "
             "within 10 %%: DESIGN.md §15.3)\n",
             static_cast<double>(ran[0].run->makespan) /
                 static_cast<double>(ran[1].run->makespan));
       }},
      {"A11", "A11: scan service — four arrival processes, one admission "
              "configuration",
       DbKind::kService, ServiceRows,
       [](const Ctx& c, const std::vector<Ran>& ran) {
         const service::ServiceOptions o = *ServiceRows(c).front().service;
         std::printf(
             "tables: %zu x %llu pages, zipf %.2f | %zu jobs at %.0f/s | "
             "caps: global %zu, per table %zu, queue %zu | pool: %zu frames"
             "\n\n",
             o.workload.num_tables,
             static_cast<unsigned long long>(o.workload.pages_per_table),
             o.workload.zipf_theta, o.arrival.num_jobs, o.arrival.rate_per_sec,
             o.admission.global_cap, o.admission.per_table_cap,
             o.admission.queue_bound, o.run.buffer.num_frames);
         const auto admission = [](std::string header,
                                   uint64_t service::AdmissionStats::*field) {
           return CountColumn(std::move(header), [field](const Ran& r) {
             return r.service->admission.*field;
           });
         };
         using service::AdmissionStats;
         PrintRunTable("scenario",
                       {admission("arrived", &AdmissionStats::arrived),
                        admission("admitted", &AdmissionStats::admitted),
                        admission("queued", &AdmissionStats::queued),
                        admission("shed", &AdmissionStats::shed),
                        admission("shed (global)",
                                  &AdmissionStats::shed_global_cap),
                        admission("shed (table)",
                                  &AdmissionStats::shed_table_cap),
                        admission("max running", &AdmissionStats::max_running),
                        admission("max queue", &AdmissionStats::max_queue_depth)},
                       ran);
         std::printf("\n");
         using service::ServiceResult;
         PrintRunTable(
             "scenario",
             {ServiceTime("sojourn p50",
                          [](const ServiceResult& r) { return r.sojourn.p50; }),
              ServiceTime("p99",
                          [](const ServiceResult& r) { return r.sojourn.p99; }),
              ServiceTime("p999",
                          [](const ServiceResult& r) { return r.sojourn.p999; }),
              ServiceTime("queue wait p99",
                          [](const ServiceResult& r) { return r.queue_wait.p99; }),
              ServiceTime("makespan",
                          [](const ServiceResult& r) { return r.makespan; })},
             ran);
       }},
  };
  return kExperiments;
}

// ------------------------------------------------------------------ driver

/// The rows --exp=ID[,ID...] names, in table order; every row when empty.
std::vector<const Experiment*> Select(const std::string& ids) {
  std::set<std::string> wanted;
  for (size_t start = 0; start < ids.size();) {
    size_t comma = ids.find(',', start);
    if (comma == std::string::npos) comma = ids.size();
    wanted.insert(ids.substr(start, comma - start));
    start = comma + 1;
  }
  const bool all = wanted.empty();
  std::vector<const Experiment*> out;
  for (const Experiment& e : Experiments()) {
    if (all || wanted.erase(e.id) > 0) out.push_back(&e);
  }
  if (!wanted.empty()) {
    std::fprintf(stderr, "unknown experiment: %s\nexperiments:",
                 wanted.begin()->c_str());
    for (const Experiment& e : Experiments()) std::fprintf(stderr, " %s", e.id);
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  return out;
}

/// Writes a traced run as PATH (Chrome trace_event JSON) plus its
/// .scans.csv and .metrics.json siblings.
void ExportTrace(const std::string& path, const RunResult& run) {
  const std::vector<obs::TraceEvent>& events = run.trace->events();
  WriteFileOrDie(path, obs::ChromeTraceJson(events));
  WriteFileOrDie(path + ".scans.csv", obs::ScanTimelineCsv(events));
  WriteFileOrDie(path + ".metrics.json",
                 obs::MetricsJson(metrics::CollectRunMetrics(run)));
  std::printf("trace: %zu events (%llu dropped) -> %s (+.scans.csv, "
              "+.metrics.json)\n",
              events.size(),
              static_cast<unsigned long long>(run.trace->dropped()),
              path.c_str());
}

/// A row's result: an engine run, or a service run for A11's rows.
using Outcome = std::variant<RunResult, service::ServiceResult>;

std::string RunJson(const RunResult& run) {
  std::vector<std::string> streams;
  for (sim::Micros elapsed : metrics::PerStreamElapsed(run)) {
    streams.push_back(std::to_string(elapsed));
  }
  JsonObject templates;
  for (const auto& [name, mean] : metrics::PerQueryAverages(run)) {
    templates.Put(name, mean);
  }
  const metrics::CpuBreakdown cpu = metrics::ComputeCpuBreakdown(run);
  JsonObject split;
  split.Put("user", cpu.user)
      .Put("system", cpu.system)
      .Put("iowait", cpu.iowait)
      .Put("idle", cpu.idle);
  JsonObject out;
  out.PutRaw("metrics", obs::MetricsJson(metrics::CollectRunMetrics(run)))
      .PutRaw("stream_elapsed_us", JsonArray(streams))
      .PutRaw("template_mean_us", templates.ToString())
      .PutRaw("cpu", split.ToString());
  return out.ToString();
}

std::string OutcomeJson(const Outcome& outcome) {
  if (const RunResult* run = std::get_if<RunResult>(&outcome)) {
    return RunJson(*run);
  }
  JsonObject out;
  out.PutRaw("metrics",
             obs::MetricsJson(service::CollectServiceMetrics(
                 std::get<service::ServiceResult>(outcome))));
  return out.ToString();
}

int Main(int argc, char** argv) {
  // --exp= is this binary's own flag; the rest is the common set.
  std::string ids;
  std::vector<char*> common = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--exp=", 6) == 0) {
      ids = argv[i] + 6;
    } else {
      common.push_back(argv[i]);
    }
  }
  const BenchConfig config =
      ParseFlags(static_cast<int>(common.size()), common.data());
  const std::vector<const Experiment*> selected = Select(ids);

  // Each label runs once. Labels keep first-read order, database kind by
  // kind, for the output.
  constexpr DbKind kKinds[] = {DbKind::kLineitem, DbKind::kTwoTable,
                               DbKind::kMdc, DbKind::kPushIo,
                               DbKind::kService};
  std::map<DbKind, std::unique_ptr<exec::Database>> dbs;
  std::vector<service::ServiceTable> service_tables;
  std::map<const Experiment*, std::vector<Row>> rows;
  std::vector<std::string> order;
  std::set<std::string> queued;
  std::vector<std::pair<DbKind, const Row*>> jobs;
  for (DbKind kind : kKinds) {
    for (const Experiment* e : selected) {
      if (e->db != kind) continue;
      if (dbs.count(kind) == 0) {
        dbs[kind] = BuildDb(kind, config, &service_tables);
      }
      rows[e] = e->rows(Ctx{*dbs[kind], config});
      for (const Row& row : rows[e]) {
        if (!queued.insert(row.label).second) continue;
        order.push_back(row.label);
        jobs.emplace_back(kind, &row);
      }
    }
  }

  // Every run goes into one pool. A11's and A10's runs start first: they
  // are the longest, and started last they would run while the other
  // workers sit idle.
  std::stable_sort(jobs.begin(), jobs.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  std::vector<DatabaseFactory> factories(std::size(kKinds));
  for (DbKind kind : kKinds) {
    factories[static_cast<size_t>(kind)] = [kind, &config] {
      return BuildDb(kind, config);
    };
  }
  std::vector<size_t> factory_of;
  for (const auto& job : jobs) {
    factory_of.push_back(static_cast<size_t>(job.first));
  }
  std::vector<Outcome> out(jobs.size());
  RunEach(config, factories, factory_of,
          [&](exec::Database* db, size_t i) -> Status {
            const Row& row = *jobs[i].second;
            if (row.service.has_value()) {
              SCANSHARE_ASSIGN_OR_RETURN(
                  out[i],
                  service::ScanService(db).Run(*row.service, service_tables));
            } else {
              SCANSHARE_ASSIGN_OR_RETURN(
                  out[i], db->Run(row.job.run, row.job.streams));
            }
            return Status::OK();
          });
  std::map<std::string, Outcome> results;
  for (size_t i = 0; i < jobs.size(); ++i) {
    results[jobs[i].second->label] = std::move(out[i]);
  }

  for (const Experiment* e : selected) {
    const Ctx ctx{*dbs[e->db], config};
    if (e->db == DbKind::kService) {
      // A11 sizes its own pool; its print step states it.
      std::printf("=== %s ===\n", e->title);
    } else {
      PrintHeader(e->title, ctx.db, config);
    }
    std::vector<Ran> ran;
    for (const Row& row : rows[e]) {
      const Outcome& outcome = results[row.label];
      ran.push_back({row.name, std::get_if<RunResult>(&outcome), nullptr,
                     std::get_if<service::ServiceResult>(&outcome)});
    }
    e->print(ctx, ran);
    std::printf("\n");
  }

  if (!config.trace_path.empty()) {
    for (const std::string& label : order) {
      const RunResult* run = std::get_if<RunResult>(&results[label]);
      if (run != nullptr && run->trace != nullptr) {
        ExportTrace(config.trace_path + "." + label, *run);
      }
    }
  }

  if (!config.json_path.empty()) {
    JsonObject cfg;
    cfg.Put("pages", config.pages)
        .Put("streams", static_cast<uint64_t>(config.streams))
        .Put("queries_per_stream",
             static_cast<uint64_t>(config.queries_per_stream))
        .Put("seed", config.seed)
        .Put("bp_fraction", config.bp_fraction)
        .Put("extent_pages", config.extent_pages)
        .Put("stagger_us", StaggerMicros(config));
    JsonObject experiments;
    for (const Experiment* e : selected) {
      std::vector<std::string> reads;
      for (const Row& row : rows[e]) {
        JsonObject r;
        r.Put("name", row.name).Put("run", row.label);
        reads.push_back(r.ToString());
      }
      experiments.PutRaw(e->id, JsonArray(reads));
    }
    JsonObject runs;
    for (const std::string& label : order) {
      runs.PutRaw(label, OutcomeJson(results[label]));
    }
    JsonObject root;
    root.Put("bench", std::string("paper"))
        .PutRaw("config", cfg.ToString())
        .PutRaw("experiments", experiments.ToString())
        .PutRaw("runs", runs.ToString());
    WriteFileOrDie(config.json_path, root.ToString());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace scanshare::bench

int main(int argc, char** argv) { return scanshare::bench::Main(argc, argv); }
