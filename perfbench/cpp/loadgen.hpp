// Closed-loop, pipelined load generator over raw loopback sockets.
//
// One thread drives every connection through poll(): each connection
// keeps `window` requests in flight and sends the next one the moment a
// response comes back, so a slower server receives less load. Frames
// are copied from pre-encoded templates with only the request id and
// budget patched, which keeps the generator far cheaper per request than
// the server it measures.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "util/socket.hpp"
#include "workload.hpp"

namespace perfbench {

/// One request of a phase, in send order.
struct Sent {
  std::uint32_t request = 0;  ///< index into the phase's request list
  std::int64_t send_ns = 0;   ///< queued for the socket
  std::int64_t recv_ns = 0;   ///< full response frame read
};

struct Phase {
  std::vector<Sent> sent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< last response read
  /// When the tick callback ran: the phase start, then every tick
  /// period up to and including the deadline.
  std::vector<std::int64_t> ticks;
};

/// Called for every response frame with its request's record (receive
/// time filled in), the frame type and the body bytes (valid only
/// during the call).
using OnResponse = std::function<void(const Sent& sent, std::uint16_t frame_type,
                                      std::string_view body)>;

/// Request i of a phase's list; the reference need only live until the
/// next call.
using RequestAt = std::function<const Request&(std::size_t i)>;

class LoadGen {
public:
  /// Opens `connections` TCP connections to 127.0.0.1:`port`.
  LoadGen(std::uint16_t port, std::size_t connections);

  /// Sends at(0), at(1), ... with `window` requests in flight per
  /// connection until `count` were sent or `deadline_ns` passes (0 = no
  /// deadline), then waits for every outstanding response. With
  /// `tick_ns` > 0, `on_tick` runs at the start and every `tick_ns` until
  /// the deadline (window boundaries). Throws std::runtime_error on a
  /// transport failure or when the server stops answering for 60 s.
  [[nodiscard]] Phase run(const Workload& w, std::size_t count,
                          const RequestAt& at, std::size_t window,
                          std::int64_t deadline_ns, const OnResponse& on_response,
                          std::int64_t tick_ns = 0,
                          const std::function<void()>& on_tick = {});

private:
  struct Conn {
    medcc::util::FdHandle fd;
    std::string out;
    std::size_t out_off = 0;
    std::vector<char> in;     ///< receive buffer; [in_begin, in_end) unread
    std::size_t in_begin = 0;
    std::size_t in_end = 0;
    std::size_t inflight = 0;
  };

  std::vector<Conn> conns_;
  /// Request ids are unique across phases on these connections.
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
