#include "service/admission.h"

#include <algorithm>
#include <string>

namespace scanshare::service {

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {
  // Degenerate caps would deadlock the service loop (nothing could ever
  // run); clamp to 1 rather than making every caller validate.
  options_.global_cap = std::max<size_t>(options_.global_cap, 1);
  options_.per_table_cap = std::max<size_t>(options_.per_table_cap, 1);
}

bool AdmissionController::CanRun(size_t table) const {
  if (running_total_ >= options_.global_cap) return false;
  const auto it = running_per_table_.find(table);
  return it == running_per_table_.end() || it->second < options_.per_table_cap;
}

void AdmissionController::NoteAdmitted(size_t table) {
  ++running_total_;
  ++running_per_table_[table];
  stats_.max_running =
      std::max<uint64_t>(stats_.max_running, running_total_);
}

AdmissionDecision AdmissionController::Offer(uint64_t job, size_t table) {
  ++stats_.arrived;
  AdmissionDecision decision;
  if (CanRun(table)) {
    decision.outcome = AdmissionDecision::Outcome::kAdmit;
    ++stats_.admitted;
    NoteAdmitted(table);
    decision.queue_depth = queue_.size();
    return decision;
  }
  if (queue_.size() < options_.queue_bound) {
    decision.outcome = AdmissionDecision::Outcome::kQueue;
    queue_.push_back(Waiter{job, table});
    ++stats_.queued;
    stats_.max_queue_depth =
        std::max<uint64_t>(stats_.max_queue_depth, queue_.size());
    decision.queue_depth = queue_.size();
    return decision;
  }
  decision.outcome = AdmissionDecision::Outcome::kShed;
  // Blame the narrower constraint: the table cap if this table is
  // saturated, else the global cap (both can hold; the table cap is the
  // actionable one for a caller deciding where to retry).
  const auto it = running_per_table_.find(table);
  const bool table_full =
      it != running_per_table_.end() && it->second >= options_.per_table_cap;
  decision.reason =
      table_full ? ShedReason::kTableCap : ShedReason::kGlobalCap;
  ++stats_.shed;
  if (decision.reason == ShedReason::kTableCap) {
    ++stats_.shed_table_cap;
  } else {
    ++stats_.shed_global_cap;
  }
  decision.queue_depth = queue_.size();
  return decision;
}

void AdmissionController::Release(size_t table) {
  ++stats_.released;
  if (running_total_ > 0) --running_total_;
  const auto it = running_per_table_.find(table);
  if (it != running_per_table_.end() && it->second > 0) {
    if (--it->second == 0) running_per_table_.erase(it);
  }
}

std::vector<uint64_t> AdmissionController::DrainAdmissible() {
  std::vector<uint64_t> admitted;
  // One forward pass is complete: admitting a waiter only consumes
  // capacity, so a waiter skipped here could not have fit later in the
  // same pass either.
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (!CanRun(it->table)) {
      ++it;
      continue;
    }
    admitted.push_back(it->job);
    NoteAdmitted(it->table);
    ++stats_.admitted_from_queue;
    it = queue_.erase(it);
  }
  return admitted;
}

size_t AdmissionController::running_on(size_t table) const {
  const auto it = running_per_table_.find(table);
  return it == running_per_table_.end() ? 0 : it->second;
}

Status AdmissionController::CheckInvariants() const {
  if (stats_.arrived != stats_.admitted + stats_.queued + stats_.shed) {
    return Status::Internal(
        "admission audit: arrived " + std::to_string(stats_.arrived) +
        " != admitted " + std::to_string(stats_.admitted) + " + queued " +
        std::to_string(stats_.queued) + " + shed " +
        std::to_string(stats_.shed));
  }
  if (stats_.shed != stats_.shed_global_cap + stats_.shed_table_cap) {
    return Status::Internal("admission audit: shed reasons do not sum");
  }
  if (stats_.admitted_from_queue > stats_.queued) {
    return Status::Internal(
        "admission audit: more jobs dequeued than ever queued");
  }
  if (queue_.size() !=
      stats_.queued - stats_.admitted_from_queue) {
    return Status::Internal(
        "admission audit: queue depth " + std::to_string(queue_.size()) +
        " disagrees with queued - dequeued counters");
  }
  if (queue_.size() > options_.queue_bound) {
    return Status::Internal(
        "admission audit: queue depth " + std::to_string(queue_.size()) +
        " exceeds bound " + std::to_string(options_.queue_bound));
  }
  if (running_total_ > options_.global_cap) {
    return Status::Internal(
        "admission audit: running " + std::to_string(running_total_) +
        " exceeds global cap " + std::to_string(options_.global_cap));
  }
  const uint64_t admitted_total = stats_.admitted + stats_.admitted_from_queue;
  if (admitted_total < stats_.released ||
      running_total_ != admitted_total - stats_.released) {
    return Status::Internal(
        "admission audit: running " + std::to_string(running_total_) +
        " != admitted_total " + std::to_string(admitted_total) +
        " - released " + std::to_string(stats_.released));
  }
  size_t per_table_sum = 0;
  for (const auto& [table, count] : running_per_table_) {
    if (count > options_.per_table_cap) {
      return Status::Internal(
          "admission audit: table " + std::to_string(table) + " runs " +
          std::to_string(count) + " jobs, above its cap " +
          std::to_string(options_.per_table_cap));
    }
    if (count == 0) {
      return Status::Internal(
          "admission audit: zero-count entry leaked for table " +
          std::to_string(table));
    }
    per_table_sum += count;
  }
  if (per_table_sum != running_total_) {
    return Status::Internal(
        "admission audit: per-table running counts sum to " +
        std::to_string(per_table_sum) + ", not " +
        std::to_string(running_total_));
  }
  return Status::OK();
}

}  // namespace scanshare::service
