// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Experiment reporting: the quantities the paper's tables and figures are
// made of (end-to-end/read/seek gains, CPU-usage breakdowns, per-stream and
// per-query timings, reads/seeks-over-time series) computed from RunResult
// pairs, plus fixed-width printers used by the bench harnesses.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/stream_executor.h"

namespace scanshare::metrics {

/// CPU-time distribution over a run, as fractions of total attributed time
/// (the iostat-style split of the paper's Figures 15/16).
struct CpuBreakdown {
  double user = 0.0;    ///< Tuple/page processing.
  double system = 0.0;  ///< Buffer/SSM bookkeeping overhead.
  double iowait = 0.0;  ///< Unoverlapped I/O stall.
  double idle = 0.0;    ///< Throttle waits and other idling.
};

/// Computes the CPU breakdown over every query in `run`.
CpuBreakdown ComputeCpuBreakdown(const exec::RunResult& run);

/// True iff two run results are bit-identical: every counter equal and
/// every floating-point field (aggregate values, time-series buckets)
/// matching by bit pattern, not by epsilon. This is the determinism
/// contract of the parallel harness — a run executed on a worker thread
/// must be indistinguishable from the same run executed sequentially.
/// On mismatch, if `first_diff` is non-null it receives the first
/// differing field: a counter's registry name ("io.submitted"), a query
/// counter with its stream and query index ("query.cpu_us[0.1]"), or the
/// path of any other field. Counters are compared through their structs'
/// field lists (common/counters.h).
bool BitIdentical(const exec::RunResult& a, const exec::RunResult& b,
                  std::string* first_diff = nullptr);

/// Same contract over a single query output: row counters equal and every
/// group's key, row count, and aggregate values matching bit-for-bit.
bool BitIdentical(const exec::QueryOutput& a, const exec::QueryOutput& b,
                  std::string* first_diff = nullptr);

/// Relative gain of `with` over `base`: 1 - with/base (0.21 = "21 % better").
/// Returns 0 when base is 0.
double Gain(double base, double with);

/// The paper's Table-1 content for one base/shared pair.
struct ThroughputGains {
  double end_to_end = 0.0;  ///< Makespan gain.
  double disk_read = 0.0;   ///< Pages-read gain.
  double disk_seek = 0.0;   ///< Seeks gain.
};

/// Computes Table-1 gains from a baseline run and a shared run.
ThroughputGains ComputeThroughputGains(const exec::RunResult& base,
                                       const exec::RunResult& shared);

/// Per-stream elapsed times, in stream order.
std::vector<sim::Micros> PerStreamElapsed(const exec::RunResult& run);

/// Mean elapsed time per query template name.
std::map<std::string, double> PerQueryAverages(const exec::RunResult& run);

// --------------------------------------------------------------- printers

/// Prints "Table 1"-style gains.
void PrintThroughputGains(const ThroughputGains& gains);

/// Prints a Figure-15/16-style CPU split plus per-run timings for a
/// staggered experiment. `labels` names the runs (e.g. "1st Q6").
void PrintCpuUsageFigure(const std::string& title, const CpuBreakdown& base,
                         const CpuBreakdown& shared,
                         const std::vector<std::string>& labels,
                         const std::vector<sim::Micros>& base_times,
                         const std::vector<sim::Micros>& shared_times);

/// Prints per-stream elapsed + gains (Figure 19).
void PrintPerStream(const std::vector<sim::Micros>& base,
                    const std::vector<sim::Micros>& shared);

/// Prints per-query average elapsed + gains (Figure 20).
void PrintPerQuery(const std::map<std::string, double>& base,
                   const std::map<std::string, double>& shared);

/// Prints two aligned time series (Figures 17/18). `unit_scale` divides
/// bucket values (e.g. 32 to turn 32 KiB pages into MiB).
void PrintTimeSeriesPair(const std::string& title, const std::string& unit,
                         const TimeSeries& base, const TimeSeries& shared,
                         double unit_scale = 1.0);

/// Writes a two-series CSV (bucket_start_s, base, shared) to `path`.
/// Returns an IO-flavoured status on failure.
Status WriteTimeSeriesCsv(const std::string& path, const TimeSeries& base,
                          const TimeSeries& shared);

/// Renders the scans' position-over-time traces as an ASCII plot (the
/// paper's Figure-7/8-style time/location diagrams): x-axis is the scan
/// position over [table_first, table_first + table_pages), y-axis is
/// virtual time top-down, each stream plots as its digit (stream index
/// mod 10), collisions as '*'. Requires the run to have been executed
/// with RunConfig::record_traces. `width`/`height` bound the plot size.
void PrintLocationTraces(const std::string& title, const exec::RunResult& run,
                         sim::PageId table_first, uint64_t table_pages,
                         size_t width = 72, size_t height = 24);

}  // namespace scanshare::metrics
