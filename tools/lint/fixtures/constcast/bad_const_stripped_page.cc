// Fixture: stripping const off page bytes — every cast below must raise a
// `constcast` finding. A fetched frame aliases the page store's image, so
// a write through either pointer would change the table for every later
// run in the process.

#include <cstdint>

namespace scanshare {

struct FakeFetch {
  const uint8_t* data;
};

struct FakePage {
  FakePage(uint8_t* data, uint32_t size) : data(data), size(size) {}
  uint8_t* data;
  uint32_t size;
};

inline FakePage WritableView(const FakeFetch& fetched) {
  return FakePage(const_cast<uint8_t*>(fetched.data), 32768);  // BAD
}

inline void Scribble(const FakeFetch& fetched) {
  uint8_t* bytes = const_cast <uint8_t*>(fetched.data);  // BAD: spaced
  bytes[0] = 0;
}

}  // namespace scanshare
