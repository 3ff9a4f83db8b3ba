// Peak memory of a bulk load. The loader formats pages straight into the
// mappings that the page store adopts, so a table's pages are resident
// once: the process's peak RSS after loading a 2048-page lineitem stays
// below 1.25x the table's bytes. A loader that stages pages and copies
// them into the store peaks near 2x.
//
// This is its own executable because ru_maxrss is a per-process
// high-water mark: here it measures this load alone. ASan and TSan builds
// skip it, since their shadow memory and allocator quarantine are not the
// loader's.

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "sim/env.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "workload/tpch_gen.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCANSHARE_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCANSHARE_SANITIZED_BUILD 1
#endif
#endif

namespace scanshare {
namespace {

#ifdef SCANSHARE_SANITIZED_BUILD
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(LoadFootprintTest, LoadingATableCostsItsPagesOnce) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer shadow memory dominates peak RSS";
  }
  sim::Env env;
  storage::DiskManager dm(&env);
  storage::Catalog catalog(&dm);
  auto info = workload::GenerateLineitem(
      &catalog, "lineitem", workload::LineitemRowsForPages(2048), 42);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_GE(info->num_pages, 2048u);

  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  const double peak_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB.
  const double table_mib =
      static_cast<double>(info->num_pages) * dm.page_size() / (1024.0 * 1024.0);
  EXPECT_LT(peak_mib, 1.25 * table_mib)
      << "peak RSS " << peak_mib << " MiB for a " << table_mib
      << " MiB table";
}

}  // namespace
}  // namespace scanshare
