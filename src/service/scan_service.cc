#include "service/scan_service.h"

#include <utility>

namespace scanshare::service {

namespace {

/// Arrivals behind admission control, as a job source for the executor's
/// loop: job id == arrival index, one query per job. An admitted job opens
/// at once — at its arrival, or at the completion that freed its slot.
class ServiceSource final : public exec::JobSource {
 public:
  ServiceSource(const ServiceOptions& options,
                const std::vector<ServiceTable>* tables,
                exec::EngineInstance* engine, ServiceResult* result)
      : options_(options),
        engine_(engine),
        tracer_(engine->tracer()),
        arrivals_(options.arrival, options.workload, tables),
        admission_(options.admission),
        result_(result) {}

  std::optional<sim::Micros> NextArrival() override {
    return arrivals_.PeekTime();
  }

  Status Arrive(exec::StreamExecutor* executor) override {
    JobArrival a = arrivals_.Take();
    const uint64_t id = result_->jobs.size();
    JobRecord rec;
    rec.id = id;
    rec.table = a.table;
    rec.client = a.client;
    rec.query = a.query.name;
    rec.arrival = a.at;
    result_->jobs.push_back(std::move(rec));
    specs_.push_back(std::move(a.query));

    const AdmissionDecision decision = admission_.Offer(id, a.table);
    switch (decision.outcome) {
      case AdmissionDecision::Outcome::kAdmit:
        SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kAdmit, a.at,
                              /*actor=*/id, /*arg0=*/a.table,
                              /*arg1=*/0);  // Zero queue wait.
        result_->jobs[id].admit_at = a.at;
        return executor->Open(id, a.at);
      case AdmissionDecision::Outcome::kQueue:
        SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kQueue, a.at,
                              /*actor=*/id, /*arg0=*/a.table,
                              /*arg1=*/decision.queue_depth);
        break;
      case AdmissionDecision::Outcome::kShed:
        SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kShed, a.at,
                              /*actor=*/id, /*arg0=*/a.table,
                              /*arg1=*/static_cast<uint64_t>(decision.reason));
        result_->jobs[id].shed = true;
        result_->jobs[id].shed_reason = decision.reason;
        // A shed closed-loop client goes straight back to thinking —
        // shedding must not shrink the offered load.
        if (arrivals_.closed_loop()) arrivals_.OnJobFinished(a.client, a.at);
        break;
    }
    return Status::OK();
  }

  const exec::QuerySpec& NextQuery(size_t id, size_t, sim::Micros) override {
    return specs_[id];
  }

  Status AfterStep(uint64_t step) override {
    if (options_.audit_every_n_steps == 0 ||
        step % options_.audit_every_n_steps != 0) {
      return Status::OK();
    }
    SCANSHARE_RETURN_IF_ERROR(CheckEngine());
    return admission_.CheckInvariants();
  }

  Status QueryDone(size_t id, sim::Micros end, exec::QueryRecord record,
                   exec::StreamExecutor* executor) override {
    JobRecord& rec = result_->jobs[id];
    rec.metrics = record.metrics;
    rec.output = std::move(record.output);
    rec.end = end;
    sojourn_.Add(rec.Sojourn());
    queue_wait_.Add(rec.QueueWait());

    admission_.Release(rec.table);
    if (arrivals_.closed_loop()) arrivals_.OnJobFinished(rec.client, end);
    // The freed slots may admit queued waiters; they start at the
    // completion time that freed them (queue wait is exact).
    for (const uint64_t waiter : admission_.DrainAdmissible()) {
      JobRecord& w = result_->jobs[waiter];
      w.from_queue = true;
      w.admit_at = end;
      SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kAdmit, end,
                            /*actor=*/waiter, /*arg0=*/w.table,
                            /*arg1=*/end - w.arrival);
      SCANSHARE_RETURN_IF_ERROR(executor->Open(waiter, end));
    }
    return Status::OK();
  }

  /// End-of-run audit: the loop terminated, so the queue must have drained
  /// and nothing may still count as running.
  Status Finish() {
    SCANSHARE_RETURN_IF_ERROR(admission_.CheckInvariants());
    if (admission_.queue_depth() != 0 || admission_.running() != 0) {
      return Status::Internal("ScanService: run ended with queued/running jobs");
    }
    SCANSHARE_RETURN_IF_ERROR(CheckEngine());
    result_->admission = admission_.stats();
    result_->sojourn = sojourn_.Summarize();
    result_->queue_wait = queue_wait_.Summarize();
    return Status::OK();
  }

 private:
  Status CheckEngine() {
    SCANSHARE_RETURN_IF_ERROR(engine_->pool()->CheckInvariants());
    if (engine_->ssm() != nullptr) {
      SCANSHARE_RETURN_IF_ERROR(engine_->ssm()->CheckInvariants());
    }
    return Status::OK();
  }

  const ServiceOptions& options_;
  exec::EngineInstance* engine_;
  obs::Tracer* tracer_;
  ArrivalProcess arrivals_;
  AdmissionController admission_;
  ServiceResult* result_;
  std::vector<exec::QuerySpec> specs_;  ///< Parallel to result_->jobs.
  LatencyRecorder sojourn_;
  LatencyRecorder queue_wait_;
};

}  // namespace

StatusOr<ServiceResult> ScanService::Run(
    const ServiceOptions& options, const std::vector<ServiceTable>& tables) {
  if (tables.empty()) {
    return Status::InvalidArgument("ScanService: no tables");
  }
  if (options.arrival.num_jobs == 0) {
    return Status::InvalidArgument("ScanService: num_jobs must be > 0");
  }
  SCANSHARE_ASSIGN_OR_RETURN(std::unique_ptr<exec::EngineInstance> engine,
                             exec::EngineInstance::Create(db_, options.run));

  ServiceResult result;
  ServiceSource source(options, &tables, engine.get(), &result);
  SCANSHARE_ASSIGN_OR_RETURN(
      exec::RunResult run,
      engine->executor()->Run(&source, options.run.series_bucket,
                              /*record_traces=*/false));
  SCANSHARE_RETURN_IF_ERROR(source.Finish());
  result.makespan = run.makespan;
  result.steps = run.steps;
  result.disk = run.disk;
  result.buffer = run.buffer;
  result.ssm = run.ssm;
  result.ism = run.ism;
  result.io = run.io;
  result.real_io = run.real_io;
  result.trace = engine->trace();
  return result;
}

}  // namespace scanshare::service
