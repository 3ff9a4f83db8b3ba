#include "buffer/policies/scan_position_board.h"

#include <algorithm>

namespace scanshare::buffer {

namespace {

/// Pages the scan will still read before reaching `page`, or nullopt when
/// `page` is not on its remaining path. The path is: position forward to
/// range_end, wrap to range_first, forward to start_page (the wrap leg
/// exists only while position >= start_page; once the scan wrapped, its
/// position is below start_page and only [position, start_page) remains).
std::optional<uint64_t> ForwardPagesTo(const ScanPositionBoard::Trajectory& t,
                                       uint64_t page) {
  if (t.position >= t.start_page) {
    // Pre-wrap: [position, range_end) then [range_first, start_page).
    if (page >= t.position && page < t.range_end) return page - t.position;
    if (page >= t.range_first && page < t.start_page) {
      return (t.range_end - t.position) + (page - t.range_first);
    }
    return std::nullopt;
  }
  // Post-wrap: only [position, start_page) remains.
  if (page >= t.position && page < t.start_page) return page - t.position;
  return std::nullopt;
}

}  // namespace

std::optional<double> ScanPositionBoard::NextConsumptionUs(
    uint64_t page) const {
  std::optional<double> soonest;
  for (const auto& [id, t] : scans_) {
    const std::optional<uint64_t> pages = ForwardPagesTo(t, page);
    if (!pages.has_value()) continue;
    const double speed = std::max(t.speed_pps, 1e-9);
    const double us = static_cast<double>(*pages) / speed * 1e6;
    if (!soonest.has_value() || us < *soonest) soonest = us;
  }
  return soonest;
}

}  // namespace scanshare::buffer
