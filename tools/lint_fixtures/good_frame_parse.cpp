// Self-test fixture: frames read through net::FrameBuffer. Naming the
// parser -- in a comment like `parse_frame_header(bytes)`, inside a
// string, or as part of a longer identifier -- must not trip
// frame-parse-outside-codec.
// medcc-lint-expect: clean
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "net/codec.hpp"

namespace medcc::fixture {

struct ReadStats {
  std::size_t parse_frame_header_calls = 0;
};

std::vector<std::string> drain(net::FrameBuffer& inbuf,
                               std::string_view received, ReadStats& stats) {
  const std::string note = "parse_frame_header( lives in net/codec";
  (void)note;
  inbuf.append(received);
  std::vector<std::string> bodies;
  while (const auto frame = inbuf.next()) {
    ++stats.parse_frame_header_calls;
    bodies.emplace_back(frame->body);
  }
  return bodies;
}

}  // namespace medcc::fixture
