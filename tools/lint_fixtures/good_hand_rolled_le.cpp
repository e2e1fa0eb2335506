// Self-test fixture: bytes encoded, decoded and patched through
// util/bytes.hpp. Other shifts -- a CRC step, a fixed shift, a shift
// spelled in a comment like `v >> (8 * i)` or inside a string -- must
// not trip hand-rolled-le.
// medcc-lint-expect: clean
#include <cstdint>
#include <string>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace medcc::fixture {

struct Fail {
  [[noreturn]] static void fail(util::ByteFault, const char* what) {
    throw Error(what);
  }
};

std::string encode(std::uint32_t v) {
  util::ByteWriter writer;
  writer.u32(v);
  return writer.take();
}

std::uint32_t decode(const std::string& bytes) {
  util::ByteReader<Fail> reader(bytes);
  return reader.u32();
}

void patch_id(std::string& frame, std::uint64_t id) {
  util::store_le64(frame.data() + 8, id);
}

std::uint32_t crc_step(std::uint32_t crc, std::uint32_t word) {
  const std::string note = "v << (8 * i)";
  (void)note;
  return (crc >> 8) ^ (word << 4);
}

}  // namespace medcc::fixture
