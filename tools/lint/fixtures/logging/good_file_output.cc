// Fixture: data through explicit FILE* handles, failures through the
// returned Status — nothing here may be flagged by scanshare-logging.
#include <cstdio>

#include "common/status.h"

namespace scanshare::fixture {

Status GoodWriteCsv(const std::string& path, double value) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("open failed");
  // Writing to an explicit file handle is data output, not console noise.
  std::fprintf(f, "value\n%.3f\n", value);
  std::fclose(f);
  return Status::OK();
}

void GoodSuppressed(int frames) {
  std::fprintf(stderr, "%d\n", frames);  // NOLINT(scanshare-logging) fixture: suppression demo
}

}  // namespace scanshare::fixture
