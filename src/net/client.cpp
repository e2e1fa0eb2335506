#include "net/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/backoff.hpp"
#include "util/bytes.hpp"

namespace medcc::net {

namespace {

using AddrList = std::unique_ptr<addrinfo, decltype(&::freeaddrinfo)>;

/// The IPv4 TCP addresses of host:port. `who` prefixes the NetError
/// thrown when the name does not resolve.
AddrList resolve(const std::string& host, const std::string& port,
                 const char* who) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &found);
  if (rc != 0 || found == nullptr)
    throw NetError(std::string(who) + ": cannot resolve " + host + ": " +
                   ::gai_strerror(rc));
  return AddrList(found, &::freeaddrinfo);
}

/// One connect attempt to each address in turn. Returns the first
/// established socket (TCP_NODELAY set), or an empty handle with the last
/// failure's cause in `error`. `timeout_ms` <= 0 waits without bound.
util::FdHandle connect_any(const addrinfo* addrs, double timeout_ms,
                           std::string& error) {
  for (const addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    // Non-blocking from the start so the timeout bounds establishment
    // too, mirroring the send/recv deadline handling.
    util::FdHandle fd(::socket(
        ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
        ai->ai_protocol));
    if (!fd) {
      error = std::strerror(errno);
      continue;
    }
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      // EINTR also means the handshake continues asynchronously.
      if (errno != EINPROGRESS && errno != EINTR) {
        error = std::strerror(errno);
        continue;
      }
      const auto wait =
          util::wait_writable(fd.get(), timeout_ms > 0.0 ? timeout_ms : -1.0);
      if (wait == util::WaitResult::timeout) {
        error = "connect timed out";
        continue;
      }
      // A refused/unreachable connect surfaces as POLLERR (WaitResult::
      // error); SO_ERROR carries the real cause either way.
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
        error = std::strerror(errno);
        continue;
      }
      if (soerr != 0) {
        error = std::strerror(soerr);
        continue;
      }
      if (wait == util::WaitResult::error) {
        error = "poll failed while connecting";
        continue;
      }
    }
    util::set_tcp_nodelay(fd.get());
    return fd;
  }
  return {};
}

/// "wire <code>: <message>" of an error frame's body.
std::string fault_text(std::string_view error_body) {
  const WireFault fault = decode_error(error_body);
  return std::string("wire ") + to_string(fault.code) + ": " + fault.message;
}

/// An error frame with request id 0: the server could not frame our
/// bytes and closes the stream after it. hello() reads a version
/// refusal as a v1 peer; to every other call it is a stream fault.
class StreamRefused : public NetError {
public:
  explicit StreamRefused(std::string_view error_body)
      : NetError("client: stream refused: " + fault_text(error_body)),
        code(decode_error(error_body).code) {}
  WireError code;
};

}  // namespace

/// Absolute steady-clock deadline; unbounded when the config timeout is 0.
struct Client::Deadline {
  std::chrono::steady_clock::time_point at;
  bool bounded = false;

  static Deadline from_timeout(double timeout_ms) {
    Deadline d;
    if (timeout_ms > 0.0) {
      d.bounded = true;
      d.at = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::milli>(timeout_ms));
    }
    return d;
  }

  /// Milliseconds left (clamped at 0), or -1 when unbounded.
  [[nodiscard]] double remaining_ms() const {
    if (!bounded) return -1.0;
    const double left = std::chrono::duration<double, std::milli>(
                            at - std::chrono::steady_clock::now())
                            .count();
    return left > 0.0 ? left : 0.0;
  }

  [[nodiscard]] bool expired() const {
    return bounded && std::chrono::steady_clock::now() >= at;
  }
};

Client::Client(ClientConfig config) : config_(std::move(config)) {}

Client::~Client() { close(); }

void Client::close() {
  fd_.close();
  inbuf_.clear();
}

void Client::connect() {
  if (connected()) return;

  const std::string port = std::to_string(config_.port);
  const auto addrs = resolve(config_.host, port, "client");
  util::Backoff backoff(config_.backoff_initial_ms, config_.backoff_cap_ms);
  std::string last_error = "no attempts made";
  const std::size_t attempts = std::max<std::size_t>(1, config_.connect_attempts);
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0)
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          backoff.next_ms()));
    fd_ = connect_any(addrs.get(), config_.connect_timeout_ms, last_error);
    if (fd_) return;
  }
  throw NetError("client: connect to " + config_.host + ":" + port +
                 " failed after " + std::to_string(attempts) +
                 " attempts: " + last_error);
}

void Client::send_bytes(std::string_view bytes, const Deadline& deadline) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_.get(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (deadline.expired()) throw NetError("client: send timed out");
      const auto wait =
          util::wait_writable(fd_.get(), deadline.remaining_ms());
      if (wait == util::WaitResult::timeout)
        throw NetError("client: send timed out");
      if (wait == util::WaitResult::error)
        throw NetError("client: connection failed while sending");
      continue;
    }
    throw NetError(std::string("client: send failed: ") +
                   std::strerror(errno));
  }
}

FrameBuffer::Frame Client::read_frame(const Deadline& deadline) {
  for (;;) {
    if (auto frame = inbuf_.next(config_.max_frame_body)) return *frame;

    if (deadline.expired()) throw NetError("client: response timed out");
    const auto wait = util::wait_readable(fd_.get(), deadline.remaining_ms());
    if (wait == util::WaitResult::timeout)
      throw NetError("client: response timed out");
    if (wait == util::WaitResult::error)
      throw NetError("client: connection failed while waiting");

    char chunk[16 * 1024];
    const long n = util::recv_some(fd_.get(), chunk, sizeof(chunk));
    if (n > 0) {
      inbuf_.append(std::string_view(chunk, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n == 0) throw NetError("client: connection closed by server");
    throw NetError(std::string("client: recv failed: ") +
                   std::strerror(errno));
  }
}

void Client::exchange(std::vector<std::string> frames,
                      const OnReply& on_reply) {
  if (frames.empty()) return;
  const std::uint64_t base = next_id_;
  next_id_ += frames.size();
  std::string burst;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    set_request_id(frames[i].data(), base + i);
    burst += frames[i];
  }
  connect();
  const auto deadline = Deadline::from_timeout(config_.request_timeout_ms);
  try {
    send_bytes(burst, deadline);
    std::vector<bool> seen(frames.size(), false);
    for (std::size_t done = 0; done < frames.size(); ++done) {
      const FrameBuffer::Frame reply = read_frame(deadline);
      const std::uint64_t id = reply.header.request_id;
      if (id == 0 && reply.header.type == FrameType::error)
        throw StreamRefused(reply.body);
      if (id < base || id - base >= frames.size())
        throw NetError("client: response for unknown request id " +
                       std::to_string(id));
      const auto slot = static_cast<std::size_t>(id - base);
      if (seen[slot])
        throw NetError("client: duplicate response for request id " +
                       std::to_string(id));
      seen[slot] = true;
      on_reply(slot, reply.header, reply.body);
    }
  } catch (const CodecError& e) {
    // A bad reply header or body leaves the stream position unknown,
    // exactly like a transport fault.
    close();
    throw NetError(std::string("client: bad reply: ") + e.what());
  } catch (...) {
    close();
    throw;
  }
}

template <class T>
T Client::call(std::string frame, FrameType type, const char* what,
               T (*decode)(std::string_view)) {
  T result{};
  exchange({std::move(frame)}, [&](std::size_t, const FrameHeader& header,
                                   std::string_view body) {
    if (header.type == FrameType::error)
      throw NetError(std::string("client: ") + what +
                     " failed: " + fault_text(body));
    if (header.type != type)
      throw NetError(std::string("client: unexpected frame answering ") +
                     what);
    result = decode(body);
  });
  return result;
}

service::SchedulingResponse Client::solve(
    const service::SchedulingRequest& request) {
  return std::move(solve_batch({request}).front());
}

std::vector<service::SchedulingResponse> Client::solve_batch(
    const std::vector<service::SchedulingRequest>& requests) {
  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (const service::SchedulingRequest& request : requests)
    frames.push_back(request.trace.valid()
                         ? encode_traced_solve_request(request, request.trace,
                                                       0)
                         : encode_solve_request(request, 0));
  std::vector<service::SchedulingResponse> responses(requests.size());
  exchange(std::move(frames), [&](std::size_t slot, const FrameHeader& header,
                                  std::string_view body) {
    switch (header.type) {
      case FrameType::solve_response:
        responses[slot] = decode_solve_response(body);
        return;
      case FrameType::error:
        // The server scoped this fault to our request (echoed id):
        // surface it as a failed response, the stream stays usable.
        responses[slot].status = service::ResponseStatus::failed;
        responses[slot].error = fault_text(body);
        return;
      default:
        throw NetError("client: unexpected frame type in response");
    }
  });
  return responses;
}

std::vector<ReplAck> Client::repl_insert_batch(
    const std::vector<ReplRecord>& records) {
  std::vector<std::string> frames;
  frames.reserve(records.size());
  for (const ReplRecord& record : records)
    frames.push_back(encode_repl_insert(record.payload, 0, record.trace));
  std::vector<ReplAck> acks(records.size());
  exchange(std::move(frames), [&](std::size_t slot, const FrameHeader& header,
                                  std::string_view body) {
    if (header.type == FrameType::repl_ack)
      acks[slot] = decode_repl_ack(body);
    else if (header.type == FrameType::error)
      acks[slot].error = fault_text(body);
    else
      throw NetError("client: unexpected frame answering repl_insert");
  });
  return acks;
}

Hello Client::hello(const Hello& offer) {
  try {
    return call(encode_hello_request(offer, 0), FrameType::hello_response,
                "hello", decode_hello_response);
  } catch (const StreamRefused& refused) {
    if (refused.code != WireError::bad_version &&
        refused.code != WireError::bad_frame_type)
      throw;
    // A v1 peer rejecting the extension frame IS the negotiation
    // result; it closed the stream, and the exchange closed our side.
    Hello granted;
    granted.version = kVersion;
    granted.features = 0;
    return granted;
  }
}

ClusterStatus Client::cluster_status() {
  return call(encode_cluster_status_request(0),
              FrameType::cluster_status_response, "cluster status",
              decode_cluster_status_response);
}

TraceDump Client::trace_dump(std::uint32_t max_traces) {
  return call(encode_trace_dump_request(max_traces, 0),
              FrameType::trace_dump_response, "trace dump",
              decode_trace_dump_response);
}

std::string Client::stats(StatsFormat format) {
  return call(encode_stats_request(format, 0), FrameType::stats_response,
              "stats", decode_stats_response);
}

// -- MultiClient -----------------------------------------------------------

/// One connection's pipeline: bytes waiting to go out, received bytes
/// not yet consumed as frames, and the send timestamp of every
/// in-flight request id (ids are globally unique, so responses -- which
/// come back on the connection that sent them -- always resolve here).
struct MultiClient::Conn {
  util::FdHandle fd;
  std::string outbuf;
  std::size_t out_off = 0;
  FrameBuffer inbuf;
  std::unordered_map<std::uint64_t, std::chrono::steady_clock::time_point>
      in_flight;
};

namespace {

/// One blocking-with-timeout TCP connect (the load generator does not
/// retry: a bench against a dead server should fail fast).
util::FdHandle multi_connect(const std::string& host, std::uint16_t port,
                             double timeout_ms) {
  const std::string service = std::to_string(port);
  const auto addrs = resolve(host, service, "multi-client");
  std::string last_error = "no usable address";
  auto fd = connect_any(addrs.get(), timeout_ms, last_error);
  if (!fd)
    throw NetError("multi-client: connect to " + host + ":" + service +
                   " failed: " + last_error);
  return fd;
}

/// Patches the 17-byte trace context at the start of the body of the
/// traced_solve_request frame that starts at `at` in `buffer` (the
/// append_trace_context layout). The inner solve_request bytes behind it
/// stay verbatim.
void patch_trace_context(std::string& buffer, std::size_t at,
                         const obs::TraceContext& context) {
  char* const prefix = buffer.data() + at + kHeaderSize;
  util::store_le64(prefix, context.id.hi);
  util::store_le64(prefix + 8, context.id.lo);
  prefix[16] = static_cast<char>(context.sampled ? 1 : 0);
}

}  // namespace

MultiClient::MultiClient() : MultiClient(MultiClientConfig()) {}

MultiClient::MultiClient(MultiClientConfig config)
    : config_(std::move(config)) {}

LoadStats MultiClient::run(const service::SchedulingRequest& request,
                           std::size_t total) {
  LoadStats stats;
  if (total == 0) return stats;

  obs::Tracer* const tracer = config_.tracer;
  const std::string frame =
      tracer != nullptr
          ? encode_traced_solve_request(request, tracer->new_context(), 0)
          : encode_solve_request(request, 0);
  const std::size_t n_conns =
      std::min(std::max<std::size_t>(1, config_.connections), total);
  const std::size_t window = std::max<std::size_t>(1, config_.window);

  std::vector<Conn> conns(n_conns);
  for (Conn& conn : conns)
    conn.fd = multi_connect(config_.host, config_.port,
                            config_.connect_timeout_ms);

  std::uint64_t next_id = 1;
  std::size_t assigned = 0;
  std::size_t completed = 0;
  stats.latency_seconds.reserve(total);

  const auto enqueue = [&](Conn& conn) {
    while (assigned < total && conn.in_flight.size() < window) {
      const std::size_t at = conn.outbuf.size();
      conn.outbuf.append(frame);
      set_request_id(conn.outbuf.data() + at, next_id);
      if (tracer != nullptr)
        patch_trace_context(conn.outbuf, at, tracer->new_context());
      conn.in_flight.emplace(next_id, std::chrono::steady_clock::now());
      ++next_id;
      ++assigned;
      ++stats.sent;
    }
  };
  for (Conn& conn : conns) enqueue(conn);

  const auto started = std::chrono::steady_clock::now();
  std::vector<pollfd> fds(n_conns);
  while (completed < total) {
    for (std::size_t i = 0; i < n_conns; ++i) {
      fds[i].fd = conns[i].fd.get();
      fds[i].events = static_cast<short>(
          POLLIN |
          (conns[i].out_off < conns[i].outbuf.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const int n = ::poll(fds.data(), fds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError(std::string("multi-client: poll failed: ") +
                     std::strerror(errno));
    }
    for (std::size_t i = 0; i < n_conns; ++i) {
      Conn& conn = conns[i];
      if ((fds[i].revents & (POLLERR | POLLHUP)) != 0 &&
          (fds[i].revents & POLLIN) == 0)
        throw NetError("multi-client: connection failed under load");
      if ((fds[i].revents & POLLOUT) != 0) {
        while (conn.out_off < conn.outbuf.size()) {
          const ssize_t sent =
              ::send(conn.fd.get(), conn.outbuf.data() + conn.out_off,
                     conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
          if (sent > 0) {
            conn.out_off += static_cast<std::size_t>(sent);
            continue;
          }
          if (sent < 0 && errno == EINTR) continue;
          if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          throw NetError(std::string("multi-client: send failed: ") +
                         std::strerror(errno));
        }
        if (conn.out_off == conn.outbuf.size()) {
          conn.outbuf.clear();
          conn.out_off = 0;
        }
      }
      if ((fds[i].revents & POLLIN) == 0) continue;
      char chunk[64 * 1024];
      for (;;) {
        const long got = util::recv_some(conn.fd.get(), chunk, sizeof(chunk));
        if (got > 0) {
          conn.inbuf.append(std::string_view(chunk,
                                             static_cast<std::size_t>(got)));
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got == 0)
          throw NetError("multi-client: connection closed by server");
        throw NetError(std::string("multi-client: recv failed: ") +
                       std::strerror(errno));
      }
      // Consume every complete frame; bodies are not decoded -- the
      // generator measures transport throughput, so classification by
      // frame type is enough (content checks live in the tests).
      while (const auto reply = conn.inbuf.next(config_.max_frame_body)) {
        const auto it = conn.in_flight.find(reply->header.request_id);
        if (it == conn.in_flight.end())
          throw NetError("multi-client: response for unknown request id " +
                         std::to_string(reply->header.request_id));
        stats.latency_seconds.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          it->second)
                .count());
        conn.in_flight.erase(it);
        if (reply->header.type == FrameType::solve_response)
          ++stats.ok;
        else
          ++stats.failed;
        ++completed;
      }
      enqueue(conn);
    }
  }
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return stats;
}

}  // namespace medcc::net
