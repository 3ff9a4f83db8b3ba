#include "common/stats.h"

#include <gtest/gtest.h>

namespace scanshare {
namespace {

TEST(TimeSeriesTest, AccumulatesIntoBuckets) {
  TimeSeries ts(1000);  // 1 ms buckets.
  ts.Add(0, 1.0);
  ts.Add(999, 2.0);
  ts.Add(1000, 5.0);
  ts.Add(2500, 7.0);
  ASSERT_EQ(ts.num_buckets(), 3u);
  EXPECT_DOUBLE_EQ(ts.bucket(0), 3.0);
  EXPECT_DOUBLE_EQ(ts.bucket(1), 5.0);
  EXPECT_DOUBLE_EQ(ts.bucket(2), 7.0);
  EXPECT_DOUBLE_EQ(ts.total(), 15.0);
}

TEST(TimeSeriesTest, UnwrittenBucketReadsZero) {
  TimeSeries ts(100);
  ts.Add(1000, 1.0);
  EXPECT_DOUBLE_EQ(ts.bucket(0), 0.0);
  EXPECT_DOUBLE_EQ(ts.bucket(99), 0.0);  // Beyond the end.
}

TEST(FormatTest, FormatMicros) {
  EXPECT_EQ(FormatMicros(12), "12us");
  EXPECT_EQ(FormatMicros(1500), "1.50ms");
  EXPECT_EQ(FormatMicros(2'500'000), "2.500s");
}

TEST(FormatTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.21), "21.0%");
  EXPECT_EQ(FormatPercent(-0.05), "-5.0%");
  EXPECT_EQ(FormatPercent(1.0), "100.0%");
}

}  // namespace
}  // namespace scanshare
