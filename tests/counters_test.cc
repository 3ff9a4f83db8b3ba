// The counter field lists (common/counters.h): each list covers its
// struct, and every walk over a list — metrics::BitIdentical, the run and
// service registries — sees each counter under its name.

#include "common/counters.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "metrics/metrics_export.h"
#include "metrics/report.h"
#include "service/service_metrics.h"

namespace scanshare {
namespace {

// ------------------------------------------------- compile-time coverage

/// `fields` without its last entry: a list that forgot one counter.
template <typename S, size_t N>
constexpr std::array<counters::Field<S>, N - 1> DropLast(
    const counters::Field<S> (&fields)[N]) {
  std::array<counters::Field<S>, N - 1> out{};
  for (size_t i = 0; i + 1 < N; ++i) out[i] = fields[i];
  return out;
}

// Every list minus one field fails the check its header asserts, so a
// counter added to a struct but not to its list does not build.
static_assert(!counters::Covers(DropLast(sim::kDiskStatsCounters),
                                sizeof(sim::DiskStats)));
static_assert(!counters::Covers(DropLast(buffer::kBufferPoolStatsCounters),
                                sizeof(buffer::BufferPoolStats)));
static_assert(!counters::Covers(DropLast(ssm::kSsmStatsCounters),
                                sizeof(ssm::SsmStats)));
static_assert(!counters::Covers(DropLast(ssm::kIsmStatsCounters),
                                sizeof(ssm::IsmStats)));
static_assert(!counters::Covers(DropLast(io::kIoPipelineStatsCounters),
                                sizeof(io::IoPipelineStats)));
static_assert(!counters::Covers(DropLast(io::kRealIoStatsCounters),
                                offsetof(io::RealIoStats, direct_io)));
static_assert(!counters::Covers(DropLast(service::kAdmissionStatsCounters),
                                sizeof(service::AdmissionStats)));
static_assert(!counters::Covers(DropLast(exec::kScanMetricsCounters),
                                sizeof(exec::ScanMetrics)));

// A list naming one member twice is as incomplete as a short one.
struct TwoCounters {
  uint64_t a = 0;
  uint64_t b = 0;
};
constexpr counters::Field<TwoCounters> kBoth[] = {{"t.a", &TwoCounters::a},
                                                  {"t.b", &TwoCounters::b}};
constexpr counters::Field<TwoCounters> kATwice[] = {{"t.a", &TwoCounters::a},
                                                    {"t.a", &TwoCounters::a}};
static_assert(counters::Covers(kBoth, sizeof(TwoCounters)));
static_assert(!counters::Covers(kATwice, sizeof(TwoCounters)));

// ------------------------------------------------------- run-time walks

/// The counter named `name` in `samples`; fails the test when absent.
uint64_t CounterNamed(const std::vector<obs::MetricSample>& samples,
                      const std::string& name) {
  for (const obs::MetricSample& s : samples) {
    if (s.name == name) return s.counter;
  }
  ADD_FAILURE() << "no metric named " << name;
  return 0;
}

/// For every entry of `fields`: a RunResult that differs only in that
/// counter of its `member` struct is not BitIdentical, the first diff is
/// the counter's name, and the run registry reads the counter under it.
template <typename List, typename S>
void ExpectEngineCountersNamed(const List& fields, S exec::RunResult::*member) {
  for (const auto& f : fields) {
    exec::RunResult a;
    exec::RunResult b;
    (b.*member).*f.member += 7;
    std::string diff;
    EXPECT_FALSE(metrics::BitIdentical(a, b, &diff)) << f.name;
    EXPECT_EQ(diff, f.name);
    EXPECT_EQ(CounterNamed(metrics::CollectRunMetrics(b), f.name),
              (a.*member).*f.member + 7);
  }
}

TEST(CountersTest, EveryEngineCounterIsComparedAndRegisteredByName) {
  ExpectEngineCountersNamed(sim::kDiskStatsCounters, &exec::RunResult::disk);
  ExpectEngineCountersNamed(buffer::kBufferPoolStatsCounters,
                            &exec::RunResult::buffer);
  ExpectEngineCountersNamed(ssm::kSsmStatsCounters, &exec::RunResult::ssm);
  ExpectEngineCountersNamed(ssm::kIsmStatsCounters, &exec::RunResult::ism);
  ExpectEngineCountersNamed(io::kIoPipelineStatsCounters,
                            &exec::RunResult::io);
  ExpectEngineCountersNamed(io::kRealIoStatsCounters,
                            &exec::RunResult::real_io);
}

TEST(CountersTest, EveryQueryCounterIsComparedByName) {
  for (const auto& f : exec::kScanMetricsCounters) {
    exec::RunResult a;
    a.streams.resize(2);
    a.streams[1].queries.resize(1);
    exec::RunResult b = a;
    b.streams[1].queries[0].metrics.*f.member = 7;
    std::string diff;
    EXPECT_FALSE(metrics::BitIdentical(a, b, &diff)) << f.name;
    EXPECT_EQ(diff, std::string(f.name) + "[1.0]");
  }
}

/// For every entry of `fields`: the service registry reads that counter of
/// the result's `member` struct under the entry's name.
template <typename List, typename S>
void ExpectServiceCountersNamed(const List& fields,
                                S service::ServiceResult::*member) {
  for (const auto& f : fields) {
    service::ServiceResult r;
    (r.*member).*f.member = 7;
    EXPECT_EQ(CounterNamed(service::CollectServiceMetrics(r), f.name), 7u);
  }
}

TEST(CountersTest, EveryServiceCounterIsRegisteredByName) {
  ExpectServiceCountersNamed(service::kAdmissionStatsCounters,
                             &service::ServiceResult::admission);
  ExpectServiceCountersNamed(sim::kDiskStatsCounters,
                             &service::ServiceResult::disk);
  ExpectServiceCountersNamed(buffer::kBufferPoolStatsCounters,
                             &service::ServiceResult::buffer);
  ExpectServiceCountersNamed(ssm::kSsmStatsCounters,
                             &service::ServiceResult::ssm);
  ExpectServiceCountersNamed(ssm::kIsmStatsCounters,
                             &service::ServiceResult::ism);
  ExpectServiceCountersNamed(io::kIoPipelineStatsCounters,
                             &service::ServiceResult::io);
  ExpectServiceCountersNamed(io::kRealIoStatsCounters,
                             &service::ServiceResult::real_io);
}

}  // namespace
}  // namespace scanshare
