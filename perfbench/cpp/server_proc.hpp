// The shipped medcc_server as a pinned child process, plus the /proc
// readings the benchmark takes from it (CPU time, peak RSS).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/socket.hpp"

namespace perfbench {

class ServerProcess {
public:
  /// Starts `binary args...` with its CPU affinity set to `cpus` (empty
  /// = inherit) and waits for its "listening on" banner. The child dies
  /// with the benchmark (PR_SET_PDEATHSIG). Throws std::runtime_error
  /// when the server exits or prints no banner within 60 s.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::vector<int>& cpus);
  /// Kills and reaps the child if stop() was not called.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// utime + stime of every server thread so far, in seconds.
  [[nodiscard]] double cpu_seconds() const;
  /// Peak resident set size (VmHWM), in MB.
  [[nodiscard]] double peak_rss_mb() const;

  /// SIGTERM, then reads the exit report to EOF and reaps the child.
  /// Returns everything the server printed on stdout. Throws when it
  /// exits with a non-zero status.
  std::string stop();

private:
  void reap(bool kill_first);

  pid_t pid_ = -1;
  medcc::util::FdHandle out_;
  std::string printed_;
  std::uint16_t port_ = 0;
};

/// utime + stime of every thread of process `pid` so far, in seconds.
[[nodiscard]] double process_cpu_seconds(pid_t pid);

/// Value of `name` in a "name value" line of a medcc metrics/transport
/// dump; 0 when absent.
[[nodiscard]] double dump_value(const std::string& dump,
                                const std::string& name);

}  // namespace perfbench
