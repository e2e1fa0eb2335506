#include "server_proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kBannerTimeoutNs = 60'000'000'000;

/// Reads whatever is available on `fd` into `out` within `timeout_ms`.
/// Returns false at EOF.
bool read_some(int fd, std::string& out, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  const int ready = ::poll(&p, 1, timeout_ms);
  if (ready < 0 && errno != EINTR)
    throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
  if (ready <= 0) return true;
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  if (n > 0) {
    out.append(buf, static_cast<std::size_t>(n));
    return true;
  }
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
  return false;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::vector<int>& cpus) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  medcc::util::FdHandle read_end(pipe_fds[0]);
  medcc::util::FdHandle write_end(pipe_fds[1]);

  // Everything the child touches is prepared before fork: between fork
  // and exec only async-signal-safe calls are allowed.
  std::vector<std::string> storage;
  storage.push_back(binary);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  const pid_t parent = ::getpid();

  pid_ = ::fork();
  if (pid_ < 0)
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (!cpus.empty()) ::sched_setaffinity(0, sizeof set, &set);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  write_end.close();
  out_ = std::move(read_end);

  const std::int64_t deadline = now_ns() + kBannerTimeoutNs;
  for (;;) {
    const auto at = printed_.find("listening on ");
    const auto eol = at == std::string::npos ? at : printed_.find('\n', at);
    if (eol != std::string::npos) {
      const std::string line = printed_.substr(at, eol - at);
      const auto colon = line.find(':');
      const auto space = line.find(' ', colon);
      port_ = static_cast<std::uint16_t>(
          std::stoul(line.substr(colon + 1, space - colon - 1)));
      return;
    }
    if (now_ns() > deadline || !read_some(out_.get(), printed_, 100)) {
      reap(true);
      throw std::runtime_error("medcc_server did not start: " + printed_);
    }
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) reap(true);
}

void ServerProcess::reap(bool kill_first) {
  if (pid_ <= 0) return;
  if (kill_first) ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double ServerProcess::cpu_seconds() const { return process_cpu_seconds(pid_); }

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line (11 and 12 after "state").
  const auto close = stat.rfind(')');
  if (close == std::string::npos)
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid) +
                             "/stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && fields >> field; ++i)
    if (i == 12 || i == 13) ticks += std::stod(field);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("cannot read VmHWM of the server");
}

std::string ServerProcess::stop() {
  ::kill(pid_, SIGTERM);
  const std::int64_t deadline = now_ns() + kBannerTimeoutNs;
  while (read_some(out_.get(), printed_, 100)) {
    if (now_ns() > deadline) {
      reap(true);
      throw std::runtime_error("medcc_server did not exit after SIGTERM");
    }
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("medcc_server exited abnormally: " + printed_);
  return printed_;
}

double dump_value(const std::string& dump, const std::string& name) {
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ')
      return std::stod(line.substr(name.size() + 1));
  }
  return 0.0;
}

}  // namespace perfbench
