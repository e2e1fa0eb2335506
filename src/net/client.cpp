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

std::string Client::read_frame(FrameHeader& header, const Deadline& deadline) {
  for (;;) {
    const auto parsed = parse_frame_header(inbuf_, config_.max_frame_body);
    if (parsed &&
        inbuf_.size() >= kHeaderSize + parsed->body_size) {
      header = *parsed;
      std::string body = inbuf_.substr(kHeaderSize, parsed->body_size);
      inbuf_.erase(0, kHeaderSize + parsed->body_size);
      return body;
    }

    if (deadline.expired()) throw NetError("client: response timed out");
    const auto wait = util::wait_readable(fd_.get(), deadline.remaining_ms());
    if (wait == util::WaitResult::timeout)
      throw NetError("client: response timed out");
    if (wait == util::WaitResult::error)
      throw NetError("client: connection failed while waiting");

    char chunk[16 * 1024];
    const long n = util::recv_some(fd_.get(), chunk, sizeof(chunk));
    if (n > 0) {
      inbuf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n == 0) throw NetError("client: connection closed by server");
    throw NetError(std::string("client: recv failed: ") +
                   std::strerror(errno));
  }
}

service::SchedulingResponse Client::response_from_frame(
    const FrameHeader& header, std::string_view body,
    std::uint64_t expected_min_id, std::uint64_t expected_max_id) {
  if (header.request_id < expected_min_id ||
      header.request_id > expected_max_id)
    throw NetError("client: response for unknown request id " +
                   std::to_string(header.request_id));
  switch (header.type) {
    case FrameType::solve_response:
      return decode_solve_response(body);
    case FrameType::error: {
      // The server scoped this fault to our request (echoed id): surface
      // it as a failed response rather than poisoning the connection.
      const WireFault fault = decode_error(body);
      service::SchedulingResponse response;
      response.status = service::ResponseStatus::failed;
      response.error = std::string("wire ") + to_string(fault.code) + ": " +
                       fault.message;
      return response;
    }
    default:
      throw NetError("client: unexpected frame type in response");
  }
}

service::SchedulingResponse Client::solve(
    const service::SchedulingRequest& request) {
  connect();
  const auto deadline = Deadline::from_timeout(config_.request_timeout_ms);
  const std::uint64_t id = next_id_++;
  try {
    send_bytes(request.trace.valid()
                   ? encode_traced_solve_request(request, request.trace, id)
                   : encode_solve_request(request, id),
               deadline);
    FrameHeader header;
    const std::string body = read_frame(header, deadline);
    return response_from_frame(header, body, id, id);
  } catch (...) {
    // Timeouts and stream faults leave the framing position unknown.
    close();
    throw;
  }
}

std::vector<service::SchedulingResponse> Client::solve_batch(
    const std::vector<service::SchedulingRequest>& requests) {
  if (requests.empty()) return {};
  connect();
  // One deadline bounds the whole pipelined burst.
  const auto deadline = Deadline::from_timeout(config_.request_timeout_ms);
  const std::uint64_t base = next_id_;
  next_id_ += requests.size();
  try {
    std::string burst;
    for (std::size_t i = 0; i < requests.size(); ++i)
      burst += requests[i].trace.valid()
                   ? encode_traced_solve_request(requests[i],
                                                 requests[i].trace, base + i)
                   : encode_solve_request(requests[i], base + i);
    send_bytes(burst, deadline);

    std::vector<service::SchedulingResponse> responses(requests.size());
    std::vector<bool> seen(requests.size(), false);
    for (std::size_t done = 0; done < requests.size(); ++done) {
      FrameHeader header;
      const std::string body = read_frame(header, deadline);
      auto response = response_from_frame(header, body, base,
                                          base + requests.size() - 1);
      const std::size_t slot =
          static_cast<std::size_t>(header.request_id - base);
      if (seen[slot])
        throw NetError("client: duplicate response for request id " +
                       std::to_string(header.request_id));
      seen[slot] = true;
      responses[slot] = std::move(response);
    }
    return responses;
  } catch (...) {
    close();
    throw;
  }
}

// -- MultiClient -----------------------------------------------------------

double LoadStats::throughput_rps() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(ok + failed) / wall_seconds;
}

double LoadStats::latency_quantile(double percent) const {
  if (latency_seconds.empty()) return 0.0;
  std::vector<double> sorted = latency_seconds;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(std::max(percent, 0.0), 100.0);
  const auto rank = static_cast<std::size_t>(
      clamped / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// One connection's pipeline: bytes waiting to go out, bytes received
/// beyond the last consumed frame, and the send timestamp of every
/// in-flight request id (ids are globally unique, so responses -- which
/// come back on the connection that sent them -- always resolve here).
struct MultiClient::Conn {
  util::FdHandle fd;
  std::string outbuf;
  std::size_t out_off = 0;
  std::string inbuf;
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
          conn.inbuf.append(chunk, static_cast<std::size_t>(got));
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
      for (;;) {
        const auto header =
            parse_frame_header(conn.inbuf, config_.max_frame_body);
        if (!header || conn.inbuf.size() < kHeaderSize + header->body_size)
          break;
        const auto it = conn.in_flight.find(header->request_id);
        if (it == conn.in_flight.end())
          throw NetError("multi-client: response for unknown request id " +
                         std::to_string(header->request_id));
        stats.latency_seconds.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          it->second)
                .count());
        conn.in_flight.erase(it);
        if (header->type == FrameType::solve_response)
          ++stats.ok;
        else
          ++stats.failed;
        ++completed;
        conn.inbuf.erase(0, kHeaderSize + header->body_size);
      }
      enqueue(conn);
    }
  }
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return stats;
}

Hello Client::hello(const Hello& offer) {
  connect();
  const auto deadline = Deadline::from_timeout(config_.request_timeout_ms);
  const std::uint64_t id = next_id_++;
  try {
    send_bytes(encode_hello_request(offer, id), deadline);
    FrameHeader header;
    const std::string body = read_frame(header, deadline);
    if (header.type == FrameType::hello_response && header.request_id == id)
      return decode_hello_response(body);
    if (header.type == FrameType::error) {
      const WireFault fault = decode_error(body);
      if (fault.code == WireError::bad_version ||
          fault.code == WireError::bad_frame_type) {
        // A v1 peer rejecting the extension frame IS the negotiation
        // result; it also closes the stream, so drop our side too.
        close();
        Hello granted;
        granted.version = kVersion;
        granted.features = 0;
        return granted;
      }
      throw NetError(std::string("client: hello failed: wire ") +
                     to_string(fault.code) + ": " + fault.message);
    }
    throw NetError("client: unexpected frame answering hello");
  } catch (...) {
    close();
    throw;
  }
}

std::vector<ReplAck> Client::repl_insert_batch(
    const std::vector<std::string>& payloads) {
  std::vector<ReplRecord> records(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    records[i].payload = payloads[i];
  return repl_insert_batch(records);
}

std::vector<ReplAck> Client::repl_insert_batch(
    const std::vector<ReplRecord>& payloads) {
  if (payloads.empty()) return {};
  connect();
  const auto deadline = Deadline::from_timeout(config_.request_timeout_ms);
  const std::uint64_t base = next_id_;
  next_id_ += payloads.size();
  try {
    std::string burst;
    for (std::size_t i = 0; i < payloads.size(); ++i)
      burst += encode_repl_insert(payloads[i].payload, base + i,
                                  payloads[i].trace);
    send_bytes(burst, deadline);

    std::vector<ReplAck> acks(payloads.size());
    std::vector<bool> seen(payloads.size(), false);
    for (std::size_t done = 0; done < payloads.size(); ++done) {
      FrameHeader header;
      const std::string body = read_frame(header, deadline);
      if (header.request_id < base ||
          header.request_id >= base + payloads.size())
        throw NetError("client: repl ack for unknown request id " +
                       std::to_string(header.request_id));
      ReplAck ack;
      if (header.type == FrameType::repl_ack) {
        ack = decode_repl_ack(body);
      } else if (header.type == FrameType::error) {
        const WireFault fault = decode_error(body);
        ack.applied = false;
        ack.error = std::string("wire ") + to_string(fault.code) + ": " +
                    fault.message;
      } else {
        throw NetError("client: unexpected frame answering repl_insert");
      }
      const std::size_t slot =
          static_cast<std::size_t>(header.request_id - base);
      if (seen[slot])
        throw NetError("client: duplicate repl ack for request id " +
                       std::to_string(header.request_id));
      seen[slot] = true;
      acks[slot] = std::move(ack);
    }
    return acks;
  } catch (...) {
    close();
    throw;
  }
}

ClusterStatus Client::cluster_status() {
  connect();
  const auto deadline = Deadline::from_timeout(config_.request_timeout_ms);
  const std::uint64_t id = next_id_++;
  try {
    send_bytes(encode_cluster_status_request(id), deadline);
    FrameHeader header;
    const std::string body = read_frame(header, deadline);
    if (header.type != FrameType::cluster_status_response ||
        header.request_id != id) {
      if (header.type == FrameType::error) {
        const WireFault fault = decode_error(body);
        throw NetError(std::string("client: cluster status failed: wire ") +
                       to_string(fault.code) + ": " + fault.message);
      }
      throw NetError("client: unexpected frame answering cluster status");
    }
    return decode_cluster_status_response(body);
  } catch (...) {
    close();
    throw;
  }
}

TraceDump Client::trace_dump(std::uint32_t max_traces) {
  connect();
  const auto deadline = Deadline::from_timeout(config_.request_timeout_ms);
  const std::uint64_t id = next_id_++;
  try {
    send_bytes(encode_trace_dump_request(max_traces, id), deadline);
    FrameHeader header;
    const std::string body = read_frame(header, deadline);
    if (header.type != FrameType::trace_dump_response ||
        header.request_id != id) {
      if (header.type == FrameType::error) {
        const WireFault fault = decode_error(body);
        throw NetError(std::string("client: trace dump failed: wire ") +
                       to_string(fault.code) + ": " + fault.message);
      }
      throw NetError("client: unexpected frame answering trace dump");
    }
    return decode_trace_dump_response(body);
  } catch (...) {
    close();
    throw;
  }
}

std::string Client::stats(StatsFormat format) {
  connect();
  const auto deadline = Deadline::from_timeout(config_.request_timeout_ms);
  const std::uint64_t id = next_id_++;
  try {
    send_bytes(encode_stats_request(format, id), deadline);
    FrameHeader header;
    const std::string body = read_frame(header, deadline);
    if (header.type != FrameType::stats_response || header.request_id != id) {
      if (header.type == FrameType::error) {
        const WireFault fault = decode_error(body);
        throw NetError(std::string("client: stats failed: wire ") +
                       to_string(fault.code) + ": " + fault.message);
      }
      throw NetError("client: unexpected frame answering stats request");
    }
    return decode_stats_response(body);
  } catch (...) {
    close();
    throw;
  }
}

}  // namespace medcc::net
