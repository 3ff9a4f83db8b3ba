#include "ssm/throttle_controller.h"

#include <algorithm>
#include <cmath>

namespace scanshare::ssm {

ThrottleDecision LeaderWait(uint64_t gap, uint64_t threshold, uint64_t quantum,
                            double trailer_speed, bool exhausted,
                            sim::Micros max_wait) {
  ThrottleDecision decision;
  decision.gap_pages = gap;
  // Hysteresis of one update quantum: without the slack a leader would be
  // "throttled" over and over for quantization noise, burning its fairness
  // budget for nothing.
  if (gap <= threshold + quantum) return decision;

  if (exhausted) {
    decision.capped = true;  // Paper's 80 % rule: never throttle again.
    return decision;
  }

  // Wait long enough for the trailer to close the gap down to the
  // threshold at its measured speed. (The leader contributes no progress
  // while waiting, so the gap shrinks at exactly the trailer's speed.)
  const double trailer = std::max(trailer_speed, 1e-9);
  const double excess = static_cast<double>(gap - threshold);
  const double wait_seconds = excess / trailer;
  const sim::Micros wait =
      static_cast<sim::Micros>(std::llround(wait_seconds * 1e6));
  decision.wait = std::min<sim::Micros>(wait, max_wait);
  return decision;
}

double FairnessBudget(double fairness_cap, double tolerance,
                      sim::Micros estimated_duration) {
  return fairness_cap * tolerance * static_cast<double>(estimated_duration);
}

ThrottleDecision ChargeFairnessBudget(ThrottleDecision decision, double budget,
                                      sim::Micros* accumulated_wait,
                                      bool* exhausted) {
  if (decision.wait == 0) return decision;
  const double budget_left = budget - static_cast<double>(*accumulated_wait);
  if (static_cast<double>(decision.wait) >= budget_left) {
    decision.wait =
        budget_left > 0.0 ? static_cast<sim::Micros>(budget_left) : 0;
    *exhausted = true;
    if (decision.wait == 0) decision.capped = true;
  }
  *accumulated_wait += decision.wait;
  return decision;
}

}  // namespace scanshare::ssm
