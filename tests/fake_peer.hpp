// A scripted stand-in for a peer the real Server never is -- a v1 node,
// a replica that sends corrupt replies. It listens on a loopback
// ephemeral port; its thread answers the first whole frame of every
// accepted connection with fixed bytes, then closes that connection.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "net/codec.hpp"
#include "util/socket.hpp"

namespace medcc::test {

class FakePeer {
public:
  explicit FakePeer(std::string reply) : reply_(std::move(reply)) {
    listen_fd_.reset(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    if (!listen_fd_.valid() ||
        ::bind(listen_fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_.get(), 8) != 0 ||
        ::getsockname(listen_fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
      throw std::runtime_error("fake peer: cannot listen on loopback");
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~FakePeer() {
    stop_.store(true);
    thread_.join();
  }

  FakePeer(const FakePeer&) = delete;
  FakePeer& operator=(const FakePeer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Connections answered so far (counted before the reply is sent).
  [[nodiscard]] std::size_t answered() const { return answered_.load(); }

private:
  void serve() {
    while (!stop_.load()) {
      if (util::wait_readable(listen_fd_.get(), 20.0) !=
          util::WaitResult::ready)
        continue;
      util::FdHandle conn(
          ::accept4(listen_fd_.get(), nullptr, nullptr, SOCK_CLOEXEC));
      if (conn.valid() && read_one_frame(conn.get())) {
        answered_.fetch_add(1);
        (void)util::send_all(conn.get(), reply_.data(), reply_.size());
      }
    }
  }

  /// Reads until one whole frame has arrived; false on EOF or silence.
  static bool read_one_frame(int fd) {
    net::FrameBuffer received;
    char chunk[4096];
    for (;;) {
      if (received.next().has_value()) return true;
      if (util::wait_readable(fd, 5000.0) != util::WaitResult::ready)
        return false;
      const long n = util::recv_some(fd, chunk, sizeof(chunk));
      if (n <= 0) return false;
      received.append(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
  }

  std::string reply_;
  util::FdHandle listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> answered_{0};
  std::thread thread_;  // last: starts once everything above exists
};

}  // namespace medcc::test
