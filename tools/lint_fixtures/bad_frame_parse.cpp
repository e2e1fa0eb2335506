// Self-test fixture: library code reading frames off a byte stream with
// its own parse_frame_header loop instead of net::FrameBuffer.
// medcc-lint-expect: frame-parse-outside-codec
#include <string>
#include <vector>

#include "net/codec.hpp"

namespace medcc::fixture {

std::vector<std::string> drain(std::string& inbuf) {
  std::vector<std::string> bodies;
  for (;;) {
    const auto header = net::parse_frame_header(inbuf);
    if (!header || inbuf.size() < net::kHeaderSize + header->body_size)
      break;
    bodies.push_back(inbuf.substr(net::kHeaderSize, header->body_size));
    inbuf.erase(0, net::kHeaderSize + header->body_size);
  }
  return bodies;
}

}  // namespace medcc::fixture
