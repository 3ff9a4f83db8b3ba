// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// ScanPositionBoard unit tests: the wrap-protocol path prediction
// (pre-wrap two-leg walk, post-wrap tail, dead pages) and the speed clamp.

#include "buffer/policies/scan_position_board.h"

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

namespace scanshare::buffer {
namespace {

ScanPositionBoard::Trajectory Traj(uint64_t id, uint64_t position,
                                   double speed_pps, uint64_t range_first,
                                   uint64_t range_end, uint64_t start_page) {
  ScanPositionBoard::Trajectory t;
  t.scan_id = id;
  t.position = position;
  t.speed_pps = speed_pps;
  t.range_first = range_first;
  t.range_end = range_end;
  t.start_page = start_page;
  return t;
}

TEST(ScanPositionBoardTest, EmptyBoardPredictsNothing) {
  ScanPositionBoard board;
  EXPECT_EQ(board.size(), 0u);
  EXPECT_FALSE(board.NextConsumptionUs(0).has_value());
  EXPECT_FALSE(board.NextConsumptionUs(123).has_value());
}

TEST(ScanPositionBoardTest, ForwardLegBeforeRangeEnd) {
  ScanPositionBoard board;
  // Started at page 10, currently at 20, range [0, 100): forward leg is
  // [20, 100), wrap leg is [0, 10).
  board.Upsert(Traj(1, /*position=*/20, /*speed_pps=*/1e6, 0, 100, 10));
  // 30 is 10 pages ahead at 1e6 pages/s -> 10 us.
  const std::optional<double> us = board.NextConsumptionUs(30);
  ASSERT_TRUE(us.has_value());
  EXPECT_DOUBLE_EQ(*us, 10.0);
  // The current position itself is 0 pages away.
  const std::optional<double> at = board.NextConsumptionUs(20);
  ASSERT_TRUE(at.has_value());
  EXPECT_DOUBLE_EQ(*at, 0.0);
}

TEST(ScanPositionBoardTest, WrapLegCountsBothSegments) {
  ScanPositionBoard board;
  board.Upsert(Traj(1, /*position=*/20, /*speed_pps=*/1e6, 0, 100, 10));
  // Page 5 is on the wrap leg: (100 - 20) forward + 5 from range_first =
  // 85 pages -> 85 us.
  const std::optional<double> us = board.NextConsumptionUs(5);
  ASSERT_TRUE(us.has_value());
  EXPECT_DOUBLE_EQ(*us, 85.0);
}

TEST(ScanPositionBoardTest, PreWrapDeadZones) {
  ScanPositionBoard board;
  board.Upsert(Traj(1, /*position=*/20, /*speed_pps=*/1e6, 0, 100, 10));
  // Between start_page and position: already consumed this cycle, and the
  // scan finishes at start_page — never read again.
  EXPECT_FALSE(board.NextConsumptionUs(15).has_value());
  // At/after range_end: outside the scan's range entirely.
  EXPECT_FALSE(board.NextConsumptionUs(100).has_value());
  EXPECT_FALSE(board.NextConsumptionUs(500).has_value());
  // start_page itself is where the scan STOPS: not consumed again.
  EXPECT_FALSE(board.NextConsumptionUs(10).has_value());
}

TEST(ScanPositionBoardTest, PostWrapOnlyTailRemains) {
  ScanPositionBoard board;
  // Started at 50, wrapped, now at 5: only [5, 50) remains.
  board.Upsert(Traj(1, /*position=*/5, /*speed_pps=*/1e6, 0, 100, 50));
  const std::optional<double> near = board.NextConsumptionUs(7);
  ASSERT_TRUE(near.has_value());
  EXPECT_DOUBLE_EQ(*near, 2.0);
  // Beyond the finish point: dead, even though it is inside the range —
  // the scan already covered [50, 100) before wrapping.
  EXPECT_FALSE(board.NextConsumptionUs(50).has_value());
  EXPECT_FALSE(board.NextConsumptionUs(80).has_value());
}

TEST(ScanPositionBoardTest, FullRangeScanStartingAtRangeFirst) {
  ScanPositionBoard board;
  // start_page == range_first == position: the whole range is ahead and
  // there is no wrap leg.
  board.Upsert(Traj(1, /*position=*/0, /*speed_pps=*/1e6, 0, 100, 0));
  ASSERT_TRUE(board.NextConsumptionUs(99).has_value());
  EXPECT_DOUBLE_EQ(*board.NextConsumptionUs(99), 99.0);
  EXPECT_FALSE(board.NextConsumptionUs(100).has_value());
}

TEST(ScanPositionBoardTest, SoonestOfSeveralScansWins) {
  ScanPositionBoard board;
  // Scan 1 is 50 pages away from page 60; scan 2 only 10.
  board.Upsert(Traj(1, /*position=*/10, /*speed_pps=*/1e6, 0, 100, 10));
  board.Upsert(Traj(2, /*position=*/50, /*speed_pps=*/1e6, 0, 100, 50));
  const std::optional<double> us = board.NextConsumptionUs(60);
  ASSERT_TRUE(us.has_value());
  EXPECT_DOUBLE_EQ(*us, 10.0);
  // A slower-but-closer scan can still lose: drop scan 2 to 1 page/s and
  // scan 1's 50-page / 1e6-pps path (50 us) beats 10 pages / 1 pps (1e7 us).
  board.Upsert(Traj(2, /*position=*/50, /*speed_pps=*/1.0, 0, 100, 50));
  const std::optional<double> after = board.NextConsumptionUs(60);
  ASSERT_TRUE(after.has_value());
  EXPECT_DOUBLE_EQ(*after, 50.0);
}

TEST(ScanPositionBoardTest, ZeroSpeedClampedNotDivByZero) {
  ScanPositionBoard board;
  board.Upsert(Traj(1, /*position=*/0, /*speed_pps=*/0.0, 0, 100, 0));
  const std::optional<double> us = board.NextConsumptionUs(10);
  ASSERT_TRUE(us.has_value());
  // Clamped to 1e-9 pages/s: finite, astronomically far, and stable.
  EXPECT_DOUBLE_EQ(*us, 10.0 / 1e-9 * 1e6);
}

TEST(ScanPositionBoardTest, UpsertRefreshesAndEraseRemoves) {
  ScanPositionBoard board;
  board.Upsert(Traj(1, /*position=*/20, /*speed_pps=*/1e6, 0, 100, 10));
  EXPECT_EQ(board.size(), 1u);
  // Refresh under the same id: position advances, size does not.
  board.Upsert(Traj(1, /*position=*/40, /*speed_pps=*/1e6, 0, 100, 10));
  EXPECT_EQ(board.size(), 1u);
  ASSERT_TRUE(board.NextConsumptionUs(50).has_value());
  EXPECT_DOUBLE_EQ(*board.NextConsumptionUs(50), 10.0);
  board.Erase(1);
  EXPECT_EQ(board.size(), 0u);
  EXPECT_FALSE(board.NextConsumptionUs(50).has_value());
  // Erasing an unknown id is a no-op, not an error.
  board.Erase(99);
  EXPECT_EQ(board.size(), 0u);
}

}  // namespace
}  // namespace scanshare::buffer
