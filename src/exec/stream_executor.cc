#include "exec/stream_executor.h"

#include <algorithm>
#include <utility>

namespace scanshare::exec {

namespace {

/// The fixed streams of Run(streams): stream i is job i. Every query open
/// is its own heap event — the first at the stream's start delay, each
/// later one after the previous query's close plus the think time.
class StreamSource final : public JobSource {
 public:
  explicit StreamSource(const std::vector<StreamSpec>& streams)
      : streams_(streams), records_(streams.size()) {}

  Status Begin(sim::Micros start, StreamExecutor* executor) override {
    for (size_t i = 0; i < streams_.size(); ++i) {
      if (!streams_[i].queries.empty()) {
        executor->ScheduleOpen(i, start + streams_[i].start_delay);
      }
    }
    return Status::OK();
  }

  const QuerySpec& NextQuery(size_t id, size_t index,
                            sim::Micros now) override {
    if (index == 0) records_[id].start = now;
    return streams_[id].queries[index];
  }

  Status QueryDone(size_t id, sim::Micros end, QueryRecord record,
                   StreamExecutor* executor) override {
    const StreamSpec& stream = streams_[id];
    record.name = stream.queries[record.index].name;
    const size_t next = record.index + 1;
    records_[id].queries.push_back(std::move(record));
    if (next < stream.queries.size()) {
      executor->ScheduleOpen(id, end + stream.inter_query_delay);
    } else {
      records_[id].end = end;  // Finished: the stream leaves the heap.
    }
    return Status::OK();
  }

  std::vector<StreamRecord> TakeRecords() { return std::move(records_); }

 private:
  const std::vector<StreamSpec>& streams_;
  std::vector<StreamRecord> records_;
};

}  // namespace

StreamExecutor::StreamExecutor(sim::Env* env, buffer::BufferPool* pool,
                               const storage::Catalog* catalog,
                               ssm::ScanSharingManager* ssm,
                               ssm::IndexScanSharingManager* ism,
                               const CostModel& cost, ScanMode mode,
                               KernelMode, obs::Tracer* tracer)
    : env_(env),
      pool_(pool),
      catalog_(catalog),
      ssm_(ssm),
      ism_(ism),
      cost_(cost),
      mode_(mode),
      tracer_(tracer) {}

StatusOr<RunResult> StreamExecutor::Run(const std::vector<StreamSpec>& streams,
                                        sim::Micros series_bucket,
                                        bool record_traces) {
  if (streams.empty()) {
    return Status::InvalidArgument("StreamExecutor: no streams");
  }
  StreamSource source(streams);
  SCANSHARE_ASSIGN_OR_RETURN(RunResult result,
                             Run(&source, series_bucket, record_traces));
  result.streams = source.TakeRecords();
  return result;
}

StatusOr<RunResult> StreamExecutor::Run(JobSource* source,
                                        sim::Micros series_bucket,
                                        bool record_traces) {
  if (mode_ == ScanMode::kShared && ssm_ == nullptr) {
    return Status::InvalidArgument("StreamExecutor: shared mode needs an SSM");
  }
  sim::VirtualClock& clock = env_->clock();
  source_ = source;
  record_traces_ = record_traces;
  t0_ = clock.Now();
  last_close_ = 0;
  last_ = env_->disk().stats();
  jobs_.clear();
  events_ = EventHeap();
  result_ = RunResult();
  result_.reads_over_time = TimeSeries(series_bucket);
  result_.seeks_over_time = TimeSeries(series_bucket);

  SCANSHARE_RETURN_IF_ERROR(source_->Begin(t0_, this));
  // Among pending events the earliest virtual time wins; an arrival at t
  // beats every step at t. Event times are nondecreasing, so the clock
  // stays monotonic.
  for (;;) {
    const std::optional<sim::Micros> arrival = source_->NextArrival();
    if (!arrival.has_value() && events_.empty()) break;
    if (arrival.has_value() &&
        (events_.empty() || *arrival <= events_.Peek().time)) {
      clock.AdvanceTo(*arrival);
      SCANSHARE_RETURN_IF_ERROR(source_->Arrive(this));
      continue;
    }
    const size_t id = events_.Pop().index;
    Job& job = jobs_[id];
    clock.AdvanceTo(job.ready_at);
    if (job.cursor == nullptr) {
      // A scheduled open; stepping starts on the next pop (still at now).
      SCANSHARE_RETURN_IF_ERROR(Open(id, job.ready_at));
    } else {
      SCANSHARE_RETURN_IF_ERROR(Step(id));
    }
  }

  result_.makespan = last_close_ > t0_ ? last_close_ - t0_ : 0;
  result_.disk = env_->disk().stats();
  result_.buffer = pool_->stats();
  if (ssm_ != nullptr) result_.ssm = ssm_->stats();
  if (ism_ != nullptr) result_.ism = ism_->stats();
  if (prefetcher_ != nullptr) {
    result_.io = prefetcher_->stats();
    result_.real_io = prefetcher_->backend().real_stats();
  }
  return std::move(result_);
}

Status StreamExecutor::Open(size_t id, sim::Micros now) {
  Job& job = JobAt(id);
  const QuerySpec& spec = source_->NextQuery(id, job.next_query, now);
  SCANSHARE_ASSIGN_OR_RETURN(const storage::TableInfo* table,
                             catalog_->GetTable(spec.table));
  const bool shared = mode_ == ScanMode::kShared;
  ScanEnv scan_env;
  scan_env.pool = pool_;
  scan_env.table = table;
  scan_env.cost = &cost_;
  scan_env.disk_options = &env_->disk().options();
  scan_env.ssm = shared ? ssm_ : nullptr;
  scan_env.tracer = tracer_;
  scan_env.kernel_workers = kernel_workers_;
  if (spec.access == AccessPath::kIndexScan) {
    IndexScanEnv index_env;
    index_env.base = scan_env;
    SCANSHARE_ASSIGN_OR_RETURN(index_env.index,
                               catalog_->GetBlockIndex(spec.table));
    index_env.ism = shared ? ism_ : nullptr;
    job.cursor = MakeIndexScan(index_env, spec);
  } else {
    job.cursor = MakeTableScan(scan_env, spec);
  }
  SCANSHARE_RETURN_IF_ERROR(job.cursor->Open(now));
  SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kQueryBegin, now,
                        /*actor=*/id, /*arg0=*/job.next_query);
  job.ready_at = now;
  events_.Push(now, id);
  return Status::OK();
}

Status StreamExecutor::Step(size_t id) {
  Job& job = jobs_[id];
  const sim::Micros now = env_->clock().Now();
  bool done = false;
  SCANSHARE_ASSIGN_OR_RETURN(const sim::Micros elapsed,
                             job.cursor->Step(now, &done));
  ++result_.steps;
#ifdef SCANSHARE_AUDIT
  // Audit builds re-verify the engine after every step, so a cursor bug
  // surfaces (as Internal) at the step that caused it.
  SCANSHARE_RETURN_IF_ERROR(pool_->CheckInvariants());
  if (ssm_ != nullptr) SCANSHARE_RETURN_IF_ERROR(ssm_->CheckInvariants());
#endif
  SCANSHARE_RETURN_IF_ERROR(source_->AfterStep(result_.steps));
  job.ready_at = now + elapsed;
  if (record_traces_) {
    job.trace.push_back(LocationSample{job.ready_at, job.cursor->position()});
  }

  // The ONLY pump site (DESIGN.md §15.2): once per step, at the step's
  // finish time, before the series snapshot — push runs stay a pure
  // function of the event schedule.
  if (prefetcher_ != nullptr) prefetcher_->Pump(job.ready_at);

  // Attribute this step's physical I/O to the time bucket it finished in.
  const sim::DiskStats& ds = env_->disk().stats();
  const uint64_t pages = ds.pages_read - last_.pages_read;
  const uint64_t seeks = ds.seeks - last_.seeks;
  if (pages > 0) {
    result_.reads_over_time.Add(job.ready_at - t0_, static_cast<double>(pages));
  }
  if (seeks > 0) {
    result_.seeks_over_time.Add(job.ready_at - t0_, static_cast<double>(seeks));
  }
  last_ = ds;

  if (!done) {
    events_.Push(job.ready_at, id);
    return Status::OK();
  }

  const sim::Micros end = job.ready_at;
  QueryRecord record;
  SCANSHARE_ASSIGN_OR_RETURN(record.output, job.cursor->Close(end));
  record.stream = id;
  record.index = job.next_query;
  record.metrics = job.cursor->metrics();
  // Whole-query span, stamped from the cursor's own clock so the span
  // covers Open→Close even when steps straddled throttle waits.
  SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kQueryEnd,
                        record.metrics.start_time, /*actor=*/id,
                        /*arg0=*/job.next_query, /*arg1=*/0,
                        record.metrics.end_time - record.metrics.start_time);
  record.trace = std::move(job.trace);
  job.trace.clear();
  job.cursor.reset();
  ++job.next_query;
  last_close_ = std::max(last_close_, end);
  return source_->QueryDone(id, end, std::move(record), this);
}

}  // namespace scanshare::exec
