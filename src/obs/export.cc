#include "obs/export.h"

#include <algorithm>
#include <cstdio>

namespace scanshare::obs {

namespace {

/// Synthetic Chrome "process" ids: Perfetto renders one swimlane group per
/// pid, which separates the three actor namespaces (scan ids, stream
/// indices, and the singleton engine actor) that would otherwise collide.
enum ChromePid : int {
  kPidScans = 1,    ///< Scan-lifecycle events; tid = scan id.
  kPidStreams = 2,  ///< Query begin/end; tid = stream index.
  kPidEngine = 3,   ///< Pool + disk point events; tid = 0.
  kPidService = 4,  ///< Admission decisions; tid = service job id.
};

struct ChromeRow {
  int pid = kPidEngine;
  const char* category = "engine";
};

ChromeRow RowFor(EventKind kind) {
  switch (kind) {
    case EventKind::kScanAdmit:
    case EventKind::kScanJoin:
    case EventKind::kScanLeader:
    case EventKind::kScanTrailer:
    case EventKind::kThrottleInsert:
    case EventKind::kThrottleRelease:
    case EventKind::kCapSuppress:
    case EventKind::kScanEnd:
      return ChromeRow{kPidScans, "scan"};
    case EventKind::kRegroup:
      return ChromeRow{kPidScans, "ssm"};
    case EventKind::kQueryBegin:
    case EventKind::kQueryEnd:
      return ChromeRow{kPidStreams, "query"};
    case EventKind::kPoolHit:
    case EventKind::kPoolMiss:
    case EventKind::kPoolEvict:
      return ChromeRow{kPidEngine, "buffer"};
    case EventKind::kDiskRead:
    case EventKind::kDiskSeek:
    case EventKind::kDiskFault:
      return ChromeRow{kPidEngine, "disk"};
    case EventKind::kIoSubmit:
    case EventKind::kIoComplete:
    case EventKind::kIoQueueFull:
    case EventKind::kIoPrefetchHit:
    case EventKind::kIoPrefetchDrop:
      return ChromeRow{kPidEngine, "io"};
    case EventKind::kAdmit:
    case EventKind::kQueue:
    case EventKind::kShed:
      return ChromeRow{kPidService, "service"};
  }
  return ChromeRow{};
}

void AppendU64(std::string* out, uint64_t v) { *out += std::to_string(v); }

/// One trace_event object. The format is line-oriented JSON inside a
/// "traceEvents" array; every field Perfetto needs (name/cat/ph/ts/pid/tid)
/// plus the raw args for tooltips.
void AppendChromeEvent(std::string* out, const TraceEvent& e) {
  const ChromeRow row = RowFor(e.kind);
  *out += "{\"name\":\"";
  *out += EventKindName(e.kind);
  *out += "\",\"cat\":\"";
  *out += row.category;
  *out += "\",\"ph\":\"";
  *out += e.dur > 0 ? 'X' : 'i';
  *out += "\",\"ts\":";
  AppendU64(out, e.at);
  if (e.dur > 0) {
    *out += ",\"dur\":";
    AppendU64(out, e.dur);
  } else {
    *out += ",\"s\":\"t\"";  // Instant scope: thread.
  }
  *out += ",\"pid\":";
  *out += std::to_string(row.pid);
  *out += ",\"tid\":";
  AppendU64(out, e.actor);
  *out += ",\"args\":{\"arg0\":";
  AppendU64(out, e.arg0);
  *out += ",\"arg1\":";
  AppendU64(out, e.arg1);
  *out += "}}";
}

/// Metadata event naming a pid so the Perfetto track groups read as
/// "scans" / "streams" / "engine" instead of bare numbers.
void AppendProcessName(std::string* out, int pid, const char* name) {
  *out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  *out += std::to_string(pid);
  *out += ",\"tid\":0,\"args\":{\"name\":\"";
  *out += name;
  *out += "\"}}";
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  AppendProcessName(&out, kPidScans, "scans");
  out += ",\n";
  AppendProcessName(&out, kPidStreams, "streams");
  out += ",\n";
  AppendProcessName(&out, kPidEngine, "engine");
  out += ",\n";
  AppendProcessName(&out, kPidService, "service");
  for (const TraceEvent& e : events) {
    out += ",\n";
    AppendChromeEvent(&out, e);
  }
  out += "\n]}\n";
  return out;
}

std::string ScanTimelineCsv(const std::vector<TraceEvent>& events) {
  // Scan-actor-ed lifecycle rows only (query events live on stream actors,
  // admission events on service job actors; either would shuffle into the
  // scan-id ordering).
  std::vector<size_t> rows;
  rows.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const EventKind k = events[i].kind;
    if (IsLifecycleKind(k) && k != EventKind::kQueryBegin &&
        k != EventKind::kQueryEnd && k != EventKind::kAdmit &&
        k != EventKind::kQueue && k != EventKind::kShed) {
      rows.push_back(i);
    }
  }
  // (scan, time) ordering, stable on emission index so simultaneous events
  // keep their causal order.
  std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    if (events[a].actor != events[b].actor) {
      return events[a].actor < events[b].actor;
    }
    return events[a].at < events[b].at;
  });

  std::string out = "scan,at_us,dur_us,event,arg0,arg1\n";
  out.reserve(rows.size() * 48 + out.size());
  for (size_t i : rows) {
    const TraceEvent& e = events[i];
    AppendU64(&out, e.actor);
    out += ',';
    AppendU64(&out, e.at);
    out += ',';
    AppendU64(&out, e.dur);
    out += ',';
    out += EventKindName(e.kind);
    out += ',';
    AppendU64(&out, e.arg0);
    out += ',';
    AppendU64(&out, e.arg1);
    out += '\n';
  }
  return out;
}

std::string StructuralSummary(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 16);
  for (const TraceEvent& e : events) {
    if (!IsLifecycleKind(e.kind)) continue;
    out += EventKindName(e.kind);
    out += ' ';
    AppendU64(&out, e.actor);
    out += '\n';
  }
  return out;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  // fclose flushes stdio buffers; a short write must surface as an error,
  // not as an OK status over a truncated trace.
  const bool short_write = written != content.size() || std::ferror(f) != 0;
  if (std::fclose(f) != 0 || short_write) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace scanshare::obs
