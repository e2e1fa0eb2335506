// Self-test fixture: library code encoding and decoding little-endian
// integers with its own byte-shift loops instead of util/bytes.hpp.
// medcc-lint-expect: hand-rolled-le
#include <cstdint>
#include <string>

namespace medcc::fixture {

void patch_id(std::string& frame, std::uint64_t id) {
  for (std::size_t i = 0; i < 8; ++i)
    frame[8 + i] = static_cast<char>((id >> (8 * i)) & 0xffu);
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8u * i);
  return v;
}

}  // namespace medcc::fixture
