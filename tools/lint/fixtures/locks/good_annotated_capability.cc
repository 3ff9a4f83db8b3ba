// Fixture: the capability-discipline pattern the `locks` rule accepts —
// annotated wrapper types, ordering annotations on every lock (same line
// or the clang-format continuation line), RAII guards only.

#include "common/lock_order.h"
#include "common/mutex.h"

namespace scanshare {

class GoodRegistry {
 public:
  void Mutate() SCANSHARE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++value_;
  }

  void MutateRegistry() SCANSHARE_EXCLUDES(registry_mu_) {
    MutexLock lock(registry_mu_);
    ++registry_value_;
  }

 private:
  Mutex mu_ SCANSHARE_ACQUIRED_AFTER(lock_order::kDriver);
  // Wrapped declaration: annotation on the continuation line is fine.
  mutable Mutex registry_mu_
      SCANSHARE_ACQUIRED_BEFORE(lock_order::kIoBackend);
  int value_ SCANSHARE_GUARDED_BY(mu_) = 0;
  int registry_value_ SCANSHARE_GUARDED_BY(registry_mu_) = 0;
};

}  // namespace scanshare
