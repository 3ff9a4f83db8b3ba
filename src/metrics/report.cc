#include "metrics/report.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/counters.h"

namespace scanshare::metrics {

namespace {

// Bitwise double equality: NaN == NaN, +0 != -0. This is deliberately
// stricter than operator== — the parallel-determinism contract is "same
// bytes", not "close enough".
bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

// Records the first difference and returns false, for use as
// `return Diff(first_diff, "...")`.
bool Diff(std::string* first_diff, const std::string& what) {
  if (first_diff != nullptr && first_diff->empty()) *first_diff = what;
  return false;
}

std::string At(const char* field, size_t i, size_t j = SIZE_MAX) {
  std::string out = field;
  out += '[';
  out += std::to_string(i);
  if (j != SIZE_MAX) {
    out += '.';
    out += std::to_string(j);
  }
  out += ']';
  return out;
}

bool SeriesIdentical(const char* name, const TimeSeries& a,
                     const TimeSeries& b, std::string* first_diff) {
  if (a.bucket_width() != b.bucket_width()) {
    return Diff(first_diff, std::string(name) + ".bucket_width");
  }
  if (a.num_buckets() != b.num_buckets()) {
    return Diff(first_diff, std::string(name) + ".num_buckets");
  }
  for (size_t i = 0; i < a.num_buckets(); ++i) {
    if (!SameBits(a.bucket(i), b.bucket(i))) {
      return Diff(first_diff, At(name, i));
    }
  }
  return true;
}

// Shared body of the two public BitIdentical overloads: compares one query
// output, labelling differences under `prefix`.
bool OutputIdentical(const exec::QueryOutput& a, const exec::QueryOutput& b,
                     const std::string& prefix, std::string* first_diff) {
  if (a.rows_scanned != b.rows_scanned || a.rows_matched != b.rows_matched ||
      a.groups.size() != b.groups.size()) {
    return Diff(first_diff, prefix + ".output");
  }
  for (size_t g = 0; g < a.groups.size(); ++g) {
    const exec::GroupResult& ga = a.groups[g];
    const exec::GroupResult& gb = b.groups[g];
    if (ga.key != gb.key || ga.rows != gb.rows ||
        ga.values.size() != gb.values.size()) {
      return Diff(first_diff, prefix + "." + At("group", g));
    }
    for (size_t v = 0; v < ga.values.size(); ++v) {
      if (!SameBits(ga.values[v], gb.values[v])) {
        return Diff(first_diff, prefix + "." + At("group.value", g, v));
      }
    }
  }
  return true;
}

}  // namespace

bool BitIdentical(const exec::QueryOutput& a, const exec::QueryOutput& b,
                  std::string* first_diff) {
  return OutputIdentical(a, b, "query", first_diff);
}

bool BitIdentical(const exec::RunResult& a, const exec::RunResult& b,
                  std::string* first_diff) {
  if (a.makespan != b.makespan) return Diff(first_diff, "makespan");
  if (a.steps != b.steps) return Diff(first_diff, "steps");

  // The engine's counter structs, in registry order.
  for (const char* diff :
       {counters::FirstDiff(sim::kDiskStatsCounters, a.disk, b.disk),
        counters::FirstDiff(buffer::kBufferPoolStatsCounters, a.buffer,
                            b.buffer),
        counters::FirstDiff(ssm::kSsmStatsCounters, a.ssm, b.ssm),
        counters::FirstDiff(ssm::kIsmStatsCounters, a.ism, b.ism),
        counters::FirstDiff(io::kIoPipelineStatsCounters, a.io, b.io),
        counters::FirstDiff(io::kRealIoStatsCounters, a.real_io,
                            b.real_io)}) {
    if (diff != nullptr) return Diff(first_diff, diff);
  }
  if (!SeriesIdentical("reads_over_time", a.reads_over_time, b.reads_over_time,
                       first_diff) ||
      !SeriesIdentical("seeks_over_time", a.seeks_over_time, b.seeks_over_time,
                       first_diff)) {
    return false;
  }

  if (a.streams.size() != b.streams.size()) {
    return Diff(first_diff, "streams.size");
  }
  for (size_t s = 0; s < a.streams.size(); ++s) {
    const exec::StreamRecord& sa = a.streams[s];
    const exec::StreamRecord& sb = b.streams[s];
    if (sa.start != sb.start || sa.end != sb.end) {
      return Diff(first_diff, At("stream", s));
    }
    if (sa.queries.size() != sb.queries.size()) {
      return Diff(first_diff, At("stream.queries.size", s));
    }
    for (size_t q = 0; q < sa.queries.size(); ++q) {
      const exec::QueryRecord& qa = sa.queries[q];
      const exec::QueryRecord& qb = sb.queries[q];
      if (qa.name != qb.name || qa.stream != qb.stream ||
          qa.index != qb.index) {
        return Diff(first_diff, At("query.id", s, q));
      }
      if (const char* metric = counters::FirstDiff(
              exec::kScanMetricsCounters, qa.metrics, qb.metrics)) {
        return Diff(first_diff, At(metric, s, q));
      }
      if (!OutputIdentical(qa.output, qb.output, At("query", s, q),
                           first_diff)) {
        return false;
      }
      if (qa.trace.size() != qb.trace.size()) {
        return Diff(first_diff, At("query.trace.size", s, q));
      }
      for (size_t t = 0; t < qa.trace.size(); ++t) {
        if (qa.trace[t].time != qb.trace[t].time ||
            qa.trace[t].position != qb.trace[t].position) {
          return Diff(first_diff, At("query.trace", s, q));
        }
      }
    }
  }

  // Event traces: both absent, or equal event-for-event (including drop
  // counts — a run that overflowed its ring differently is not identical).
  const bool ta = a.trace != nullptr, tb = b.trace != nullptr;
  if (ta != tb) return Diff(first_diff, "trace.presence");
  if (ta) {
    if (a.trace->dropped() != b.trace->dropped()) {
      return Diff(first_diff, "trace.dropped");
    }
    const std::vector<obs::TraceEvent>& ea = a.trace->events();
    const std::vector<obs::TraceEvent>& eb = b.trace->events();
    if (ea.size() != eb.size()) return Diff(first_diff, "trace.size");
    for (size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].kind != eb[i].kind || ea[i].at != eb[i].at ||
          ea[i].dur != eb[i].dur || ea[i].actor != eb[i].actor ||
          ea[i].arg0 != eb[i].arg0 || ea[i].arg1 != eb[i].arg1) {
        return Diff(first_diff, At("trace.event", i));
      }
    }
  }
  return true;
}

CpuBreakdown ComputeCpuBreakdown(const exec::RunResult& run) {
  double user = 0, system = 0, iowait = 0, idle = 0, total = 0;
  for (const exec::StreamRecord& s : run.streams) {
    for (const exec::QueryRecord& q : s.queries) {
      const exec::ScanMetrics& m = q.metrics;
      user += static_cast<double>(m.cpu);
      system += static_cast<double>(m.overhead);
      iowait += static_cast<double>(m.io_stall);
      const double elapsed = static_cast<double>(m.Elapsed());
      total += elapsed;
      const double accounted = static_cast<double>(m.cpu) +
                               static_cast<double>(m.overhead) +
                               static_cast<double>(m.io_stall);
      idle += std::max(0.0, elapsed - accounted);  // Throttle waits etc.
    }
  }
  CpuBreakdown out;
  if (total <= 0) return out;
  out.user = user / total;
  out.system = system / total;
  out.iowait = iowait / total;
  out.idle = idle / total;
  return out;
}

double Gain(double base, double with) {
  if (base == 0.0) return 0.0;
  return 1.0 - with / base;
}

ThroughputGains ComputeThroughputGains(const exec::RunResult& base,
                                       const exec::RunResult& shared) {
  ThroughputGains g;
  g.end_to_end = Gain(static_cast<double>(base.makespan),
                      static_cast<double>(shared.makespan));
  g.disk_read = Gain(static_cast<double>(base.disk.pages_read),
                     static_cast<double>(shared.disk.pages_read));
  g.disk_seek = Gain(static_cast<double>(base.disk.seeks),
                     static_cast<double>(shared.disk.seeks));
  return g;
}

std::vector<sim::Micros> PerStreamElapsed(const exec::RunResult& run) {
  std::vector<sim::Micros> out;
  out.reserve(run.streams.size());
  for (const exec::StreamRecord& s : run.streams) out.push_back(s.Elapsed());
  return out;
}

std::map<std::string, double> PerQueryAverages(const exec::RunResult& run) {
  std::map<std::string, double> sums;
  std::map<std::string, uint64_t> counts;
  for (const exec::StreamRecord& s : run.streams) {
    for (const exec::QueryRecord& q : s.queries) {
      sums[q.name] += static_cast<double>(q.metrics.Elapsed());
      ++counts[q.name];
    }
  }
  for (auto& [name, sum] : sums) sum /= static_cast<double>(counts[name]);
  return sums;
}

void PrintThroughputGains(const ThroughputGains& gains) {
  std::printf("  %-22s %8s\n", "metric", "gain");
  std::printf("  %-22s %8s\n", "End-to-end time", FormatPercent(gains.end_to_end).c_str());
  std::printf("  %-22s %8s\n", "Avg. disk read", FormatPercent(gains.disk_read).c_str());
  std::printf("  %-22s %8s\n", "Avg. disk seek", FormatPercent(gains.disk_seek).c_str());
}

void PrintCpuUsageFigure(const std::string& title, const CpuBreakdown& base,
                         const CpuBreakdown& shared,
                         const std::vector<std::string>& labels,
                         const std::vector<sim::Micros>& base_times,
                         const std::vector<sim::Micros>& shared_times) {
  std::printf("%s\n", title.c_str());
  std::printf("  CPU usage      %10s %10s\n", "Base", "SS");
  std::printf("  %-12s %10s %10s\n", "User",
              FormatPercent(base.user).c_str(), FormatPercent(shared.user).c_str());
  std::printf("  %-12s %10s %10s\n", "System",
              FormatPercent(base.system).c_str(),
              FormatPercent(shared.system).c_str());
  std::printf("  %-12s %10s %10s\n", "Idle",
              FormatPercent(base.idle).c_str(), FormatPercent(shared.idle).c_str());
  std::printf("  %-12s %10s %10s\n", "Wait",
              FormatPercent(base.iowait).c_str(),
              FormatPercent(shared.iowait).c_str());
  std::printf("  Timings        %10s %10s %8s\n", "Base", "SS", "gain");
  for (size_t i = 0; i < labels.size(); ++i) {
    const double gain = Gain(static_cast<double>(base_times[i]),
                             static_cast<double>(shared_times[i]));
    std::printf("  %-12s %10s %10s %8s\n", labels[i].c_str(),
                FormatMicros(base_times[i]).c_str(),
                FormatMicros(shared_times[i]).c_str(),
                FormatPercent(gain).c_str());
  }
}

void PrintPerStream(const std::vector<sim::Micros>& base,
                    const std::vector<sim::Micros>& shared) {
  std::printf("  %-8s %10s %10s %8s\n", "stream", "Base", "SS", "gain");
  for (size_t i = 0; i < base.size() && i < shared.size(); ++i) {
    const double gain =
        Gain(static_cast<double>(base[i]), static_cast<double>(shared[i]));
    std::printf("  %-8zu %10s %10s %8s\n", i + 1, FormatMicros(base[i]).c_str(),
                FormatMicros(shared[i]).c_str(), FormatPercent(gain).c_str());
  }
}

void PrintPerQuery(const std::map<std::string, double>& base,
                   const std::map<std::string, double>& shared) {
  std::printf("  %-8s %10s %10s %8s\n", "query", "Base", "SS", "gain");
  for (const auto& [name, base_avg] : base) {
    auto it = shared.find(name);
    if (it == shared.end()) continue;
    const double gain = Gain(base_avg, it->second);
    std::printf("  %-8s %10s %10s %8s\n", name.c_str(),
                FormatMicros(static_cast<uint64_t>(base_avg)).c_str(),
                FormatMicros(static_cast<uint64_t>(it->second)).c_str(),
                FormatPercent(gain).c_str());
  }
}

void PrintTimeSeriesPair(const std::string& title, const std::string& unit,
                         const TimeSeries& base, const TimeSeries& shared,
                         double unit_scale) {
  std::printf("%s (per %.1fs bucket, %s)\n", title.c_str(),
              static_cast<double>(base.bucket_width()) / 1e6, unit.c_str());
  const size_t n = std::max(base.num_buckets(), shared.num_buckets());
  std::printf("  %-8s %12s %12s\n", "t(s)", "Base", "SS");
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) *
                     static_cast<double>(base.bucket_width()) / 1e6;
    std::printf("  %-8.1f %12.1f %12.1f\n", t, base.bucket(i) / unit_scale,
                shared.bucket(i) / unit_scale);
  }
  std::printf("  %-8s %12.1f %12.1f\n", "total", base.total() / unit_scale,
              shared.total() / unit_scale);
}

void PrintLocationTraces(const std::string& title, const exec::RunResult& run,
                         sim::PageId table_first, uint64_t table_pages,
                         size_t width, size_t height) {
  std::printf("%s\n", title.c_str());
  // Find the time span covered by any trace sample.
  sim::Micros t_min = ~0ULL, t_max = 0;
  bool any = false;
  for (const exec::StreamRecord& s : run.streams) {
    for (const exec::QueryRecord& q : s.queries) {
      for (const exec::LocationSample& sample : q.trace) {
        t_min = std::min(t_min, sample.time);
        t_max = std::max(t_max, sample.time);
        any = true;
      }
    }
  }
  if (!any) {
    std::printf("  (no traces recorded — set RunConfig::record_traces)\n");
    return;
  }
  const double t_span = std::max<double>(1.0, static_cast<double>(t_max - t_min));
  const double p_span = std::max<double>(1.0, static_cast<double>(table_pages));

  std::vector<std::string> grid(height, std::string(width, ' '));
  for (const exec::StreamRecord& s : run.streams) {
    for (const exec::QueryRecord& q : s.queries) {
      const char mark = static_cast<char>('0' + (q.stream % 10));
      for (const exec::LocationSample& sample : q.trace) {
        if (sample.position < table_first ||
            sample.position >= table_first + table_pages) {
          continue;  // Trace of a scan over another table.
        }
        const size_t row = std::min(
            height - 1,
            static_cast<size_t>(static_cast<double>(sample.time - t_min) /
                                t_span * static_cast<double>(height - 1)));
        const size_t col = std::min(
            width - 1,
            static_cast<size_t>(
                static_cast<double>(sample.position - table_first) / p_span *
                static_cast<double>(width - 1)));
        char& cell = grid[row][col];
        if (cell == ' ') {
          cell = mark;
        } else if (cell != mark) {
          cell = '*';  // Two streams at the same place and time: sharing.
        }
      }
    }
  }

  std::printf("  position 0 %*s %llu (pages)\n", static_cast<int>(width) - 6, "",
              static_cast<unsigned long long>(table_pages));
  for (size_t r = 0; r < height; ++r) {
    const double t_at =
        (static_cast<double>(t_min) +
         static_cast<double>(r) / static_cast<double>(height - 1) * t_span) /
        1e6;
    std::printf("  %7.2fs |%s|\n", t_at, grid[r].c_str());
  }
  std::printf("  (digits = stream index, '*' = streams co-located: sharing)\n");
}

Status WriteTimeSeriesCsv(const std::string& path, const TimeSeries& base,
                          const TimeSeries& shared) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  std::fprintf(f, "t_seconds,base,shared\n");
  const size_t n = std::max(base.num_buckets(), shared.num_buckets());
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) *
                     static_cast<double>(base.bucket_width()) / 1e6;
    std::fprintf(f, "%.3f,%.3f,%.3f\n", t, base.bucket(i), shared.bucket(i));
  }
  // fclose flushes the stdio buffer: a short write (full disk, I/O error)
  // surfaces here or in ferror, and must not be dropped — a truncated CSV
  // that reports OK silently corrupts the experiment record downstream.
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace scanshare::metrics
