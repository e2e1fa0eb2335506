#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "net/codec.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kStallNs = 60'000'000'000;
constexpr std::size_t kReadChunk = 256 * 1024;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("loadgen: " + what + ": " + std::strerror(errno));
}

}  // namespace

LoadGen::LoadGen(std::uint16_t port, std::size_t connections) {
  conns_.resize(connections);
  for (Conn& c : conns_) {
    c.fd.reset(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!c.fd) fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0)
      fail("connect");
    medcc::util::set_tcp_nodelay(c.fd.get());
    if (!medcc::util::set_nonblocking(c.fd.get(), true)) fail("O_NONBLOCK");
  }
}

Phase LoadGen::run(const Workload& w, std::size_t count, const RequestAt& at,
                   std::size_t window, std::int64_t deadline_ns,
                   const OnResponse& on_response, std::int64_t tick_ns,
                   const std::function<void()>& on_tick) {
  Phase phase;
  const std::uint64_t id_base = next_id_;
  std::size_t pos = 0;
  std::size_t outstanding = 0;
  std::vector<pollfd> fds(conns_.size());
  phase.start_ns = now_ns();
  std::int64_t last_progress = phase.start_ns;
  std::int64_t next_tick = phase.start_ns;
  const auto tick = [&](std::int64_t now) {
    if (tick_ns <= 0 || now < next_tick || next_tick > deadline_ns + tick_ns / 2)
      return;
    on_tick();
    phase.ticks.push_back(now);
    next_tick += tick_ns;
  };

  const auto more = [&](std::int64_t now) {
    return pos < count && (deadline_ns <= 0 || now < deadline_ns);
  };

  for (;;) {
    // Top every connection up to its window, then write what we can.
    const std::int64_t now = now_ns();
    tick(now);
    for (Conn& c : conns_) {
      while (c.inflight < window && more(now)) {
        const Request& r = at(pos);
        append_frame(c.out, w.templates[r.tmpl], r.budget,
                     id_base + phase.sent.size());
        phase.sent.push_back({static_cast<std::uint32_t>(pos), now_ns(), 0});
        ++pos;
        ++c.inflight;
        ++outstanding;
      }
      while (c.out_off < c.out.size()) {
        const ssize_t n =
            ::send(c.fd.get(), c.out.data() + c.out_off,
                   c.out.size() - c.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          fail("send");
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    if (outstanding == 0) break;

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd.get();
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const int ready = ::poll(fds.data(), fds.size(), tick_ns > 0 ? 10 : 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    if (ready == 0) {
      if (now_ns() - last_progress > kStallNs)
        throw std::runtime_error("loadgen: server stopped answering");
      continue;
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns_[i];
      for (;;) {
        if (c.in.size() - c.in_end < kReadChunk) {
          // Compact, then grow only if a frame needs the room.
          std::memmove(c.in.data(), c.in.data() + c.in_begin,
                       c.in_end - c.in_begin);
          c.in_end -= c.in_begin;
          c.in_begin = 0;
          if (c.in.size() - c.in_end < kReadChunk)
            c.in.resize(c.in_end + 2 * kReadChunk);
        }
        const long n = medcc::util::recv_some(
            c.fd.get(), c.in.data() + c.in_end, c.in.size() - c.in_end);
        if (n > 0) {
          c.in_end += static_cast<std::size_t>(n);
          continue;
        }
        if (n == 0) throw std::runtime_error("loadgen: server closed");
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        fail("recv");
      }
      const std::int64_t recv_ns = now_ns();
      for (;;) {
        const std::string_view rest(c.in.data() + c.in_begin,
                                    c.in_end - c.in_begin);
        const auto header = medcc::net::parse_frame_header(rest);
        if (!header ||
            rest.size() < medcc::net::kHeaderSize + header->body_size)
          break;
        const std::uint64_t index = header->request_id - id_base;
        if (header->request_id < id_base || index >= phase.sent.size())
          throw std::runtime_error("loadgen: response to unknown request id");
        phase.sent[index].recv_ns = recv_ns;
        on_response(phase.sent[index], static_cast<std::uint16_t>(header->type),
                    rest.substr(medcc::net::kHeaderSize, header->body_size));
        c.in_begin += medcc::net::kHeaderSize + header->body_size;
        --c.inflight;
        --outstanding;
        last_progress = recv_ns;
      }
    }
  }
  phase.end_ns = now_ns();
  next_id_ += phase.sent.size();
  return phase;
}

}  // namespace perfbench
