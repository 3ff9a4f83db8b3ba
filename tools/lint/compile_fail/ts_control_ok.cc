// Thread-safety positive control: pulls in every annotated engine header
// and exercises the correct capability pattern. Must compile cleanly
// UNDER -Wthread-safety -Wthread-safety-beta -Werror — if this fails, a
// header's annotations regressed and the ts_*.cc rejections above are not
// attributable to the analysis.

#include "buffer/partitioned_buffer_pool.h"
#include "buffer/policies/scan_position_board.h"
#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "ssm/scan_sharing_manager.h"
#include "storage/disk_manager.h"

namespace {

class Control {
 public:
  void Mutate() SCANSHARE_EXCLUDES(mu_) {
    scanshare::MutexLock lock(mu_);
    ++value_;
    MutateLocked();
  }

  int Read() SCANSHARE_EXCLUDES(mu_) {
    scanshare::MutexLock lock(mu_);
    return value_;
  }

  int ReadRegistry() const SCANSHARE_EXCLUDES(registry_mu_) {
    scanshare::MutexLock lock(registry_mu_);
    return registry_value_;
  }

  void WriteRegistry() SCANSHARE_EXCLUDES(registry_mu_) {
    scanshare::MutexLock lock(registry_mu_);
    ++registry_value_;
  }

 private:
  void MutateLocked() SCANSHARE_REQUIRES(mu_) { ++value_; }

  scanshare::Mutex mu_
      SCANSHARE_ACQUIRED_AFTER(scanshare::lock_order::kDriver);
  mutable scanshare::Mutex registry_mu_
      SCANSHARE_ACQUIRED_BEFORE(scanshare::lock_order::kSsm);
  int value_ SCANSHARE_GUARDED_BY(mu_) = 0;
  int registry_value_ SCANSHARE_GUARDED_BY(registry_mu_) = 0;
};

}  // namespace

int main() {
  Control c;
  c.Mutate();
  c.WriteRegistry();
  (void)c.ReadRegistry();
  scanshare::buffer::ScanPositionBoard board;
  board.Upsert({/*scan_id=*/1, /*position=*/0, /*speed_pps=*/1.0,
                /*range_first=*/0, /*range_end=*/8, /*start_page=*/0});
  return c.Read();
}
