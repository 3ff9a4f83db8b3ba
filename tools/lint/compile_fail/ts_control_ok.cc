// Thread-safety positive control: pulls in every annotated engine header
// and exercises the correct capability pattern. Must compile cleanly
// UNDER -Wthread-safety -Wthread-safety-beta -Werror — if this fails, a
// header's annotations regressed and the ts_*.cc rejections above are not
// attributable to the analysis.

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "exec/kernel_runahead.h"
#include "io/file_backend.h"

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
      SCANSHARE_ACQUIRED_BEFORE(scanshare::lock_order::kIoBackend);
  int value_ SCANSHARE_GUARDED_BY(mu_) = 0;
  int registry_value_ SCANSHARE_GUARDED_BY(registry_mu_) = 0;
};

}  // namespace

int main() {
  Control c;
  c.Mutate();
  c.WriteRegistry();
  (void)c.ReadRegistry();
  return c.Read();
}
