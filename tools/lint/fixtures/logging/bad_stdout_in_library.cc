// Fixture: direct console output in library code — every marked line
// violates scanshare-logging. The library is silent and returns a Status.
#include <cstdio>
#include <iostream>  // flagged: iostream include

namespace scanshare::fixture {

void BadPrints(int frames) {
  std::cout << "frames: " << frames << "\n";          // flagged
  std::cerr << "oops\n";                              // flagged
  printf("frames: %d\n", frames);                     // flagged
  std::fprintf(stderr, "frames: %d\n", frames);       // flagged
  puts("done");                                       // flagged
}

}  // namespace scanshare::fixture
