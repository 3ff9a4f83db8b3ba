// Fixture: page reads the `constcast` rule accepts — fetched bytes stay
// `const uint8_t*` and are read through a read-only view. The words
// const_cast<uint8_t*> in a comment or a string, and identifiers that
// merely contain them, must not trip the rule.

#include <cstdint>

namespace scanshare {

struct FakeFetch {
  const uint8_t* data;
};

struct FakePageView {
  FakePageView(const uint8_t* data, uint32_t size) : data(data), size(size) {}
  const uint8_t* data;
  uint32_t size;
};

inline uint8_t FirstByte(const FakeFetch& fetched) {
  const FakePageView view(fetched.data, 32768);
  return view.data[0];
}

inline const char* Explain() {
  const int no_const_cast_here = 0;  // identifier containing the word.
  (void)no_const_cast_here;
  return "never const_cast<uint8_t*>(fetched.data)";
}

}  // namespace scanshare
