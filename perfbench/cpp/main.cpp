// One run of the serving benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH --work-dir DIR
//
// Builds the workload's requests from the seed, starts the shipped
// medcc_server nine times (set-up: spawn + warm-up, median reported),
// drives the last one for S seconds from this single process over
// loopback TCP, checks every answer, and -- with --trace 1 -- replays
// the same request bytes in-process with one span per layer call.
// Prints human-readable tables, then one JSON record as the last line.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "replay.hpp"
#include "sched/bounds.hpp"
#include "sched/verify_hook.hpp"
#include "server_proc.hpp"
#include "service/service.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using medcc::service::CacheOutcome;
using medcc::service::SchedulingResponse;

constexpr std::size_t kHitReplayPrefix = 512 * 20;
constexpr std::size_t kMissReplayPrefix = 800;
constexpr std::size_t kMixedReplayPrefix = 1000;
constexpr std::size_t kMaxReportedFailures = 8;
/// Server starts per run; setup_s is their median.
constexpr std::size_t kSetups = 9;
/// Requests in flight per connection during warm-up. Kept small so the
/// server's peak RSS is not set by how many decoded problems happened to
/// queue while it primed: with the measured window of 32 on `hit_exact`
/// it landed 1.6 MB apart from run to run.
constexpr std::size_t kWarmupWindow = 2;
/// The host record splits the measured phase into this many equal
/// windows (throughput, latency, CPU and steal per window), so a burst
/// of host interference shows where it fell.
constexpr int kWindows = 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string work_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --server PATH --work-dir DIR\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::stoull(value);
    else if (arg == "--seconds") o.seconds = std::stod(value);
    else if (arg == "--trace") o.trace = value == "1";
    else if (arg == "--server") o.server = value;
    else if (arg == "--work-dir") o.work_dir = value;
    else usage("unknown flag " + arg);
  }
  if (o.workload.empty() || o.server.empty() || o.work_dir.empty() ||
      o.seconds <= 0.0)
    usage("--workload, --server, --work-dir, --seconds > 0 are required");
  return o;
}

/// Why this binary must not be measured, or "" for an optimized build
/// without invariant checking or sanitizers.
std::string build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  // A checked build (MEDCC_CHECK_INVARIANTS=ON) verifies every result;
  // feed the hook a mis-evaluated schedule and see whether it objects.
  medcc::workflow::Workflow wf;
  const auto a = wf.add_module("a", 10.0);
  const auto b = wf.add_module("b", 20.0);
  wf.add_dependency(a, b);
  const auto inst = medcc::sched::Instance::from_model(
      std::move(wf), medcc::cloud::VmCatalog({{"vt", 1.0, 1.0}}));
  const auto schedule = medcc::sched::fastest_schedule(inst);
  auto eval = medcc::sched::evaluate(inst, schedule);
  eval.med += 1.0;
  try {
    medcc::sched::detail::check_schedule_invariants(
        inst, schedule, eval, medcc::sched::detail::kUnconstrained,
        medcc::sched::detail::kUnconstrained, "perfbench");
  } catch (const std::exception&) {
    return "MEDCC_CHECK_INVARIANTS is on";
  }
  return "";
}

/// Fixed spin loop on the calling CPU, in ms: a host-speed reading taken
/// before and after each run. Reported, never used to scale metrics.
double spin_ms() {
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i)
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - start) / 1e6;
}

/// Share of CPU time the hypervisor stole from this VM since boot, as
/// (steal ticks, all ticks) from the aggregate line of /proc/stat.
std::pair<double, double> steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int field = 1; field <= 8 && in >> v; ++field) {
    total += v;
    if (field == 8) steal = v;
  }
  return {steal, total};
}

/// Peak resident set size of this process, in MB.
double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

struct Cpus {
  std::vector<int> server;
  std::vector<int> client;
  bool pinned = false;
};

/// Server on the first three allowed CPUs, generator on the fourth.
Cpus choose_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
  Cpus cpus;
  if (allowed.size() >= 4) {
    cpus.server.assign(allowed.begin(), allowed.begin() + 3);
    cpus.client.push_back(allowed[3]);
    cpus.pinned = true;
  } else {
    cpus.server = allowed;
    cpus.client = allowed;
  }
  return cpus;
}

void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) out += (out.empty() ? "" : ",") + std::to_string(cpu);
  return out;
}

/// Solves the seed problems into `dir` in-process (journal unsynced --
/// the seed is set-up input, not measured) and folds them into a
/// snapshot on shutdown.
void seed_directory(const Workload& w, const fs::path& dir) {
  fs::remove_all(dir);
  medcc::service::ServiceConfig config;
  config.cache_dir = dir.string();
  config.persist_fsync = false;
  config.snapshot_interval_s = 0.0;
  config.queue_capacity = w.seed_problems.size() + 1;
  medcc::service::SchedulingService service(config);
  auto futures = service.submit_batch(w.seed_problems);
  for (auto& f : futures)
    if (!f.get().ok()) throw std::runtime_error("seeding solve failed");
  service.shutdown();
}

/// Counters of the server's metrics dump that a phase is judged by.
struct Counters {
  double fastpath_hits = 0, fastpath_misses = 0, hits_exact = 0,
         hits_isomorphic = 0, misses = 0, rejected = 0;
};

Counters read_counters(std::uint16_t port) {
  medcc::net::ClientConfig config;
  config.port = port;
  config.request_timeout_ms = 30000.0;
  medcc::net::Client client(config);
  const std::string dump = client.stats();
  Counters c;
  c.fastpath_hits = dump_value(dump, "wire_fastpath_hits");
  c.fastpath_misses = dump_value(dump, "wire_fastpath_misses");
  c.hits_exact = dump_value(dump, "cache_hits_exact");
  c.hits_isomorphic = dump_value(dump, "cache_hits_isomorphic");
  c.misses = dump_value(dump, "cache_misses");
  for (const char* name :
       {"rejected_queue_full", "rejected_shutting_down", "rejected_deadline",
        "rejected_unknown_solver", "rejected_invalid",
        "tenant_quota_rejections", "rejected_flow_control"})
    c.rejected += dump_value(dump, name);
  return c;
}

double median_of(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Per-window figures of the measured phase: window k spans
/// [ticks[k], ticks[k+1]) and holds the answers read in it.
struct Windows {
  std::vector<double> throughput, p50, p90, cpu_us;
};

Windows judge_windows(const Phase& phase, const std::vector<double>& latency_ms,
                      const std::vector<double>& tick_cpu) {
  Windows out;
  const std::size_t n = phase.ticks.size() < 2 ? 0 : phase.ticks.size() - 1;
  std::vector<std::vector<double>> lat(n);
  for (std::size_t i = 0; i < phase.sent.size(); ++i) {
    const auto at = std::upper_bound(phase.ticks.begin(), phase.ticks.end(),
                                     phase.sent[i].recv_ns);
    const auto k = static_cast<std::size_t>(at - phase.ticks.begin());
    if (k >= 1 && k <= n) lat[k - 1].push_back(latency_ms[i]);
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (lat[k].empty()) continue;
    const double seconds =
        static_cast<double>(phase.ticks[k + 1] - phase.ticks[k]) / 1e9;
    const auto count = static_cast<double>(lat[k].size());
    out.throughput.push_back(count / seconds);
    out.p50.push_back(quantile(lat[k], 0.5));
    out.p90.push_back(quantile(lat[k], 0.9));
    out.cpu_us.push_back((tick_cpu[k + 1] - tick_cpu[k]) * 1e6 / count);
  }
  return out;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Everything a run checks and reports.
class Run {
public:
  explicit Run(Options options) : o_(std::move(options)) {}

  int execute();

private:
  void fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < kMaxReportedFailures) failures_.push_back(what);
  }
  void check(bool ok, const std::string& name) {
    checks_[name] = ok;
    if (!ok && failures_.size() < kMaxReportedFailures)
      failures_.push_back("check failed: " + name);
  }
  std::vector<std::string> server_args(const fs::path& cache_dir) const;
  /// Decodes and checks one answer; returns its MED when it passes.
  std::optional<double> judge_response(const Request& r, std::string_view body,
                                       double latency_ms);
  double fastest_med(std::uint32_t tmpl);
  void report(const std::vector<Metric>& e2e, const std::vector<Metric>& layers,
              const std::string& host_json) const;

  Options o_;
  Workload w_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, bool> checks_;
  /// Reference response body and MED per template (second warm-up pass).
  std::vector<std::string> first_hit_;
  std::map<std::uint32_t, double> base_med_;
  std::map<std::uint32_t, double> fastest_med_;
  std::vector<double> ratio_;
  std::vector<double> queue_ms_, solve_ms_, transport_ms_;
  std::map<std::size_t, double> miss_med_;  ///< measured index -> MED
};

std::vector<std::string> Run::server_args(const fs::path& cache_dir) const {
  std::vector<std::string> args = {"--bind", "127.0.0.1", "--port", "0",
                                   "--io-threads", "1", "--threads", "2"};
  if (w_.durable) {
    args.push_back("--cache-dir");
    args.push_back(cache_dir.string());
  }
  return args;
}

double Run::fastest_med(std::uint32_t tmpl) {
  const auto it = fastest_med_.find(tmpl);
  if (it != fastest_med_.end()) return it->second;
  const auto& inst = *w_.templates[tmpl].instance;
  const double med =
      medcc::sched::evaluate(inst, medcc::sched::fastest_schedule(inst)).med;
  fastest_med_[tmpl] = med;
  return med;
}

std::optional<double> Run::judge_response(const Request& r,
                                          std::string_view body,
                                          double latency_ms) {
  SchedulingResponse resp;
  try {
    resp = medcc::net::decode_solve_response(body);
  } catch (const std::exception& e) {
    fail(std::string("undecodable response: ") + e.what());
    return std::nullopt;
  }
  if (!resp.ok()) {
    fail(std::string("response not ok: ") + medcc::service::to_string(resp.status) +
         " " + medcc::service::to_string(resp.reject_reason) + " " + resp.error);
    return std::nullopt;
  }
  const auto& inst = *w_.templates[r.tmpl].instance;
  const double cost = medcc::sched::total_cost(inst, resp.result.schedule);
  if (cost > r.budget + 1e-9 * std::max(1.0, std::abs(r.budget))) {
    fail("over-budget schedule");
    return std::nullopt;
  }
  const auto base = base_med_.find(r.base);
  if (r.kind != Kind::miss && base != base_med_.end() &&
      bits(resp.result.eval.med) != bits(base->second)) {
    fail(r.kind == Kind::twin ? "twin MED differs from its base"
                              : "repeat MED differs from the first answer");
    return std::nullopt;
  }
  const bool fast_path = resp.cache == CacheOutcome::hit_exact &&
                         resp.solve_ms == 0.0 && resp.queue_delay_ms == 0.0;
  if (!fast_path) {
    queue_ms_.push_back(resp.queue_delay_ms);
    solve_ms_.push_back(resp.solve_ms);
    transport_ms_.push_back(latency_ms - resp.queue_delay_ms - resp.solve_ms);
  }
  if (r.in_ratio) ratio_.push_back(resp.result.eval.med / fastest_med(r.tmpl));
  return resp.result.eval.med;
}

int Run::execute() {
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::cerr << "perfbench: refusing to measure this build: " << refusal
              << "\n";
    return 3;
  }
  const fs::path work = o_.work_dir;
  fs::create_directories(work);
  const Cpus cpus = choose_cpus();

  w_ = make_workload(o_.workload, o_.seed);
  const fs::path seed_dir = work / "seed";
  if (w_.durable) seed_directory(w_, seed_dir);
  w_.seed_problems = {};
  pin_self(cpus.client);
  const double spin_before = spin_ms();

  // Set-ups: spawn + warm-up, kSetups times; the last one is measured.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<LoadGen> gen;
  const fs::path cache_dir = work / "server_cache";
  std::vector<Phase> warm(w_.warmup.size());
  std::vector<std::vector<std::string>> warm_bodies(w_.warmup.size());
  for (std::size_t k = 0; k < kSetups; ++k) {
    if (server) {
      gen.reset();
      server->stop();
      server.reset();
    }
    if (w_.durable) {
      fs::remove_all(cache_dir);
      fs::copy(seed_dir, cache_dir, fs::copy_options::recursive);
    }
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(o_.server, server_args(cache_dir),
                                             cpus.server);
    gen = std::make_unique<LoadGen>(server->port(), w_.connections);
    for (std::size_t p = 0; p < w_.warmup.size(); ++p) {
      auto& bodies = warm_bodies[p];
      bodies.assign(w_.warmup[p].size(), std::string());
      const auto& pass = w_.warmup[p];
      warm[p] = gen->run(w_, pass.size(),
                         [&](std::size_t i) -> const Request& { return pass[i]; },
                         std::min(w_.window, kWarmupWindow), 0,
                         [&](const Sent& sent, std::uint16_t type,
                             std::string_view body) {
                           if (type == static_cast<std::uint16_t>(
                                           medcc::net::FrameType::solve_response))
                             bodies[sent.request] = std::string(body);
                         });
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Reference answers from the last set-up's warm-up.
  first_hit_.assign(w_.templates.size(), std::string());
  std::size_t references = 0;
  for (std::size_t p = 0; p < w_.warmup.size(); ++p) {
    for (std::size_t i = 0; i < warm[p].sent.size(); ++i) {
      const Sent& sent = warm[p].sent[i];
      const Request& r = w_.warmup[p][sent.request];
      const std::string& body = warm_bodies[p][sent.request];
      if (body.empty()) {
        fail("warm-up request answered with an error frame");
        continue;
      }
      const auto med = judge_response(
          r, body, static_cast<double>(sent.recv_ns - sent.send_ns) / 1e6);
      if (!med || p != w_.reference_pass) continue;
      const auto resp = medcc::net::decode_solve_response(body);
      if (resp.cache != CacheOutcome::hit_exact || resp.solve_ms != 0.0 ||
          resp.queue_delay_ms != 0.0) {
        fail("reference answer did not come from the wire fast path");
        continue;
      }
      first_hit_[r.tmpl] = body;
      base_med_[r.tmpl] = *med;
      ++references;
    }
  }
  check(failed_ == 0, "warmup_answers_ok");
  failed_ = 0;

  // Measured phase.
  const Counters before = read_counters(server->port());
  const auto steal0 = steal_ticks();
  const double cpu0 = server->cpu_seconds();
  const double client_cpu0 = process_cpu_seconds(::getpid());
  std::uint64_t request_bytes = 0, response_bytes = 0;
  std::array<std::vector<double>, 3> class_latency_ms;  // indexed by Kind
  const bool byte_compare = w_.cyclic;  // hit_exact: every answer is a hit
  std::vector<double> tick_cpu;
  std::vector<std::pair<double, double>> tick_steal;
  const auto tick_ns =
      static_cast<std::int64_t>(o_.seconds * 1e9 / kWindows);
  const Phase phase = gen->run(
      w_, SIZE_MAX,
      [&](std::size_t i) -> const Request& { return w_.measured_at(i); },
      w_.window,
      now_ns() + static_cast<std::int64_t>(o_.seconds * 1e9),
      [&](const Sent& sent, std::uint16_t type, std::string_view body) {
        // Judged as they arrive, so no answer is kept: the generator's
        // CPU is mostly idle on the workloads that decode here.
        response_bytes += medcc::net::kHeaderSize + body.size();
        const Request r = w_.measured_at(sent.request);
        class_latency_ms[static_cast<std::size_t>(r.kind)].push_back(
            static_cast<double>(sent.recv_ns - sent.send_ns) / 1e6);
        if (type != static_cast<std::uint16_t>(
                        medcc::net::FrameType::solve_response)) {
          fail("error frame in the measured phase");
        } else if (byte_compare) {
          if (body != first_hit_[r.base])
            fail("hit differs from the first hit for its problem");
        } else if (const auto med = judge_response(
                       r, body,
                       static_cast<double>(sent.recv_ns - sent.send_ns) / 1e6);
                   med && r.kind == Kind::miss &&
                   sent.request < kMissReplayPrefix) {
          miss_med_[sent.request] = *med;
        }
      },
      tick_ns, [&] {
        tick_cpu.push_back(server->cpu_seconds());
        tick_steal.push_back(steal_ticks());
      });
  const double cpu1 = server->cpu_seconds();
  const double client_cpu1 = process_cpu_seconds(::getpid());
  const auto steal1 = steal_ticks();
  const double rss_mb = server->peak_rss_mb();
  const Counters after = read_counters(server->port());
  gen.reset();
  const std::string exit_report = server->stop();
  server.reset();
  const double spin_after = spin_ms();
  check(dump_value(exit_report, "frames_in") > 0 &&
            dump_value(exit_report, "protocol_errors") == 0 &&
            dump_value(exit_report, "dropped_responses") == 0,
        "server_exit_report_clean");

  // Answers were judged as they arrived; here only latency and bytes.
  attempted_ = phase.sent.size();
  std::vector<double> latency_ms;
  latency_ms.reserve(phase.sent.size());
  for (const Sent& s : phase.sent) {
    const Request& r = w_.measured_at(s.request);
    latency_ms.push_back(static_cast<double>(s.recv_ns - s.send_ns) / 1e6);
    request_bytes += w_.templates[r.tmpl].frame.size();
  }
  const std::uint64_t ok = attempted_ - std::min(attempted_, failed_);

  const double d_fast = after.fastpath_hits - before.fastpath_hits;
  const double d_slow = after.fastpath_misses - before.fastpath_misses;
  const double d_exact = after.hits_exact - before.hits_exact;
  const double d_iso = after.hits_isomorphic - before.hits_isomorphic;
  const double d_miss = after.misses - before.misses;
  const double d_rejected = after.rejected - before.rejected;
  const double fastpath_share = d_fast + d_slow > 0 ? d_fast / (d_fast + d_slow) : 0.0;
  check(d_rejected == 0, "no_rejections");
  if (w_.name == "hit_exact") {
    check(fastpath_share == 1.0, "fastpath_share_is_1");
  } else if (w_.name == "miss_sweep") {
    check(d_fast == 0 && d_exact == 0 && d_iso == 0, "no_hits");
  } else {
    check(d_fast + d_exact > 0 && d_iso > 0 && d_miss > 0, "all_three_outcomes");
  }
  const auto in_ratio = [](const std::vector<Request>& list) {
    return static_cast<std::size_t>(std::count_if(
        list.begin(), list.end(), [](const Request& r) { return r.in_ratio; }));
  };
  std::size_t expected_ratio = w_.ratio_requests;
  for (const auto& pass : w_.warmup) expected_ratio += in_ratio(pass);
  check(references == (w_.reference_pass < w_.warmup.size()
                           ? w_.warmup[w_.reference_pass].size()
                           : 0),
        "references_complete");
  check(ratio_.size() == expected_ratio && !ratio_.empty(), "med_ratio_complete");

  // In-process replay: the miss MED check, and with --trace 1 the
  // per-layer spans and probes.
  const std::size_t prefix = w_.name == "hit_exact"    ? kHitReplayPrefix
                             : w_.name == "miss_sweep" ? kMissReplayPrefix
                                                       : kMixedReplayPrefix;
  if (!w_.cyclic) (void)w_.measured_at(prefix - 1);
  ReplayOptions ro;
  ro.measured_prefix = prefix;
  ro.seed_dir = seed_dir.string();
  ro.scratch_dir = (work / "replay").string();
  std::optional<ReplayResult> plain, traced;
  if (o_.trace || w_.name == "miss_sweep") plain = replay(w_, ro);
  if (w_.name == "miss_sweep") {
    bool same = miss_med_.size() == kMissReplayPrefix;
    for (const auto& [index, med] : miss_med_)
      same = same && bits(med) == bits(plain->measured_med.at(index));
    check(same, "miss_med_matches_replay");
  }
  if (o_.trace) {
    ro.traced = true;
    traced = replay(w_, ro);
  }

  const double wall = static_cast<double>(phase.end_ns - phase.start_ns) / 1e9;
  const double cpu_us =
      ok > 0 ? (cpu1 - cpu0) * 1e6 / static_cast<double>(ok) : 0.0;
  const Windows win = judge_windows(phase, latency_ms, tick_cpu);
  std::vector<Metric> e2e = {
      {"throughput_rps", static_cast<double>(ok) / wall, "req/s"},
      {"latency_p50_ms", quantile(latency_ms, 0.5), "ms"},
      {"latency_p90_ms", quantile(latency_ms, 0.9), "ms"},
      {"server_cpu_us_per_req", cpu_us, "us"},
      {"server_rss_mb", rss_mb, "MB"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"med_ratio", mean(ratio_), "ratio"},
      {"requests_sent", static_cast<double>(attempted_), "count"},
      {"requests_ok", static_cast<double>(ok), "count"},
      {"requests_failed", static_cast<double>(failed_), "count"},
  };

  std::vector<Metric> layers;
  if (traced) {
    layers = layer_metrics(*traced, *plain, cpu_us);
    const double sent = std::max<double>(1.0, static_cast<double>(attempted_));
    layers.push_back({"net.request_kb_mean",
                      static_cast<double>(request_bytes) / sent / 1024.0, "KB"});
    layers.push_back({"net.response_kb_mean",
                      static_cast<double>(response_bytes) / sent / 1024.0, "KB"});
    layers.push_back({"net.fastpath_share", fastpath_share, "share"});
    layers.push_back({"net.transport_ms_p50", quantile(transport_ms_, 0.5), "ms"});
    layers.push_back({"service.queue_wait_ms_p50", quantile(queue_ms_, 0.5), "ms"});
    layers.push_back({"service.queue_wait_ms_p90", quantile(queue_ms_, 0.9), "ms"});
    layers.push_back({"service.solve_ms_p50", quantile(solve_ms_, 0.5), "ms"});
    layers.push_back({"service.hits_exact", d_exact / sent, "share"});
    layers.push_back({"service.hits_isomorphic", d_iso / sent, "share"});
    layers.push_back({"service.misses", d_miss / sent, "share"});
    layers.push_back({"service.rejected", d_rejected / sent, "share"});
    print_traced_table(*traced, cpu_us);
    write_spans(traced->spans, work / "spans.tsv");
  }
  print_summary(e2e);

  std::ostringstream host;
  host.precision(17);
  host << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"server_cpus\": \"" << cpu_list(cpus.server)
       << "\", \"client_cpus\": \"" << cpu_list(cpus.client)
       << "\", \"pinned\": " << (cpus.pinned ? "true" : "false")
       << ", \"spin_before_ms\": " << spin_before
       << ", \"spin_after_ms\": " << spin_after
       << ", \"steal_share\": "
       << (steal1.second > steal0.second
               ? (steal1.first - steal0.first) / (steal1.second - steal0.second)
               : 0.0)
       << ", \"client_cpu_share\": " << (client_cpu1 - client_cpu0) / wall
       << ", \"client_peak_rss_mb\": " << self_peak_rss_mb()
       << ", \"measured_s\": " << wall
       << ", \"window_median_throughput_rps\": " << median_of(win.throughput)
       << ", \"window_median_latency_p50_ms\": " << median_of(win.p50)
       << ", \"window_median_latency_p90_ms\": " << median_of(win.p90)
       << ", \"window_median_server_cpu_us_per_req\": " << median_of(win.cpu_us)
       << ", \"setup_s\": [";
  for (std::size_t k = 0; k < setup_s.size(); ++k)
    host << (k > 0 ? ", " : "") << setup_s[k];
  host << "], \"class_latency_ms\": {";
  const char* kinds[] = {"exact", "twin", "miss"};
  for (std::size_t k = 0; k < class_latency_ms.size(); ++k)
    host << (k > 0 ? ", " : "") << '"' << kinds[k] << "\": {\"share\": "
         << static_cast<double>(class_latency_ms[k].size()) /
                std::max<double>(1.0, static_cast<double>(attempted_))
         << ", \"p50\": " << quantile(class_latency_ms[k], 0.5)
         << ", \"p90\": " << quantile(class_latency_ms[k], 0.9) << "}";
  host << "}, \"window_rps\": [";
  for (std::size_t k = 0; k < win.throughput.size(); ++k)
    host << (k > 0 ? ", " : "") << win.throughput[k];
  host << "], \"window_steal\": [";
  for (std::size_t k = 0; k + 1 < tick_steal.size(); ++k)
    host << (k > 0 ? ", " : "")
         << (tick_steal[k + 1].first - tick_steal[k].first) /
                std::max(1.0, tick_steal[k + 1].second - tick_steal[k].second);
  host << "]}";
  report(e2e, layers, host.str());
  return 0;
}

void Run::report(const std::vector<Metric>& e2e, const std::vector<Metric>& layers,
                 const std::string& host_json) const {
  bool correct = failed_ == 0;
  for (const auto& [name, ok] : checks_) correct = correct && ok;
  std::string checks = "{";
  for (const auto& [name, ok] : checks_)
    checks += (checks.size() > 1 ? ", \"" : "\"") + name +
              "\": " + (ok ? "true" : "false");
  checks += "}";
  std::string failures = "[";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    failures += (i > 0 ? ", \"" : "\"") + json_escape(failures_[i]) + "\"";
  failures += "]";
  std::cout << "{\"workload\": \"" << w_.name << "\", \"seed\": " << o_.seed
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"checks\": " << checks << ", \"failures\": " << failures
            << ", \"host\": " << host_json
            << ", \"end_to_end\": " << json_metrics(e2e)
            << ", \"per_layer\": " << json_metrics(layers) << "}" << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Run run(perfbench::parse(argc, argv));
    return run.execute();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
