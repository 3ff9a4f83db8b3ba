// Fixture: single-threaded simulator code — nothing here may be flagged
// by scanshare-threads.
#include <cstdint>
#include <vector>

namespace scanshare {

// Plain sequential state machine: the shape of everything in src/.
class Scheduler {
 public:
  void Push(uint64_t ready_at) { ready_.push_back(ready_at); }
  uint64_t PopMin() {
    uint64_t best = ready_.back();
    ready_.pop_back();
    return best;
  }

 private:
  std::vector<uint64_t> ready_;
};

// Identifiers merely *containing* the banned words are fine: only the std
// types and the concurrency headers are concurrency.
struct ThreadPoolStats {
  uint64_t mutex_like_counter = 0;  // just a name, not std::mutex
  uint64_t atomic_writes = 0;       // just a name, not std::atomic
};

// Mentions in comments or strings are not code: std::thread, <mutex>,
// std::shared_mutex, std::atomic<int> stay comments. Real concurrent
// subsystems (thread pool, file backend, kernel run-ahead) are exempted
// by membership in THREADS_ALLOWED, not by NOLINT.
const char* kDoc = "the engine never spawns a std::thread";

// A justified, suppressed use: the suppression mechanism itself must not
// be flagged.
// (Hypothetically a debug-only counter; real code would route through the
// thread pool instead.)
#if 0
std::atomic<int> g_debug;  // NOLINT(scanshare-threads) fixture: suppression demo
#endif

}  // namespace scanshare
