// Serving-path load generator: measures the network front end
// end-to-end (TCP loopback, pipelined MultiClient traffic) along the
// two axes this layer optimizes.
//
//  1. Hit path: the same duplicate stream against a server with the
//     wire cache (zero-copy encoded-frame fast path) on vs off. With
//     it off every request still hits the *result* cache but pays
//     request decode, a queue hop to a worker, fingerprinting and
//     response re-encode; with it on a verbatim duplicate is answered
//     by splicing memoized bytes into the outbuf. The claim is about
//     the server's work, so it is judged on server CPU per request:
//     the process CPU clock over the measured run minus the CPU of the
//     client and main threads. Wall time cannot resolve it -- the one
//     client thread spends about as much CPU per request as the fast
//     path does, so it caps the wall ratio. The smoke asserts the
//     median ratio of 5 interleaved on/off pairs is >= 3x (40 smoke
//     runs on a 4-vCPU host: 5.6-7.2x on server CPU, 2.4-4.0x on wall
//     time).
//
//  2. Reactor scaling: the same fast-path-heavy blast from several
//     client threads against --io-threads 1 vs 4, timed from the
//     clients' own runs (connects excluded), median of 3 interleaved
//     pairs. The >= 2x floor needs CPUs for 4 reactors *and* the
//     client threads, or the in-process clients cap both sides: it is
//     asserted only when the usable CPUs (sched_getaffinity) number
//     >= 4 + client threads, and then the server's threads and the
//     client threads are pinned to disjoint CPUs. Otherwise the ratio
//     is reported with the reason (40 smoke runs on a 4-vCPU host:
//     1.1-1.7x, once 2.2x).
//
//  3. Cluster serving (--cluster): three in-process replicas wired via
//     the replication channel, tenant-sharded ClusterClient traffic,
//     and one replica killed mid-run. Measures steady-state cluster
//     throughput and the cost of failover; asserts zero failed
//     requests (the survivors answer every tenant from their
//     replicated caches) and at least one observed failover.
//
//  4. Trace overhead (--trace-overhead): the hit-path blast untraced
//     vs with tracing on end to end (client mints a context per
//     request, the server records spans and stage rows, head sampling at
//     its default 1-in-64). Interleaved best-of-3 each way; asserts
//     the traced ns/request stays within 5% of the untraced baseline
//     -- the budget docs/observability.md promises for always-on
//     tracing (relaxed to 15% on single-core hosts, where the client's
//     minting serializes into the measured path instead of overlapping
//     with it).
//
// Usage: net_throughput [--requests N] [--threads T] [--connections C]
//                       [--window W] [--tiles K] [--seed S]
//                       [--smoke] [--cluster] [--trace-overhead]
//                       [--json PATH]
// --json writes the numbers under schema "medcc-bench-serving/v1"
// (documented in docs/perf.md); CI uploads it as the tracked baseline.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cloud/vm_type.hpp"
#include "cluster/config.hpp"
#include "cluster/replicator.hpp"
#include "net/client.hpp"
#include "net/cluster_client.hpp"
#include "net/endpoint.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "sched/instance.hpp"
#include "service/service.hpp"
#include "util/flags.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workflow/patterns.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::net::LoadStats;
using medcc::net::MultiClient;
using medcc::net::MultiClientConfig;
using medcc::sched::Instance;
using medcc::service::SchedulingRequest;

struct Options {
  std::size_t requests = 4000;  ///< per measured run, across all threads
  std::size_t threads = 4;      ///< client threads (reactor-scaling runs)
  std::size_t connections = 4;  ///< connections per client thread
  std::size_t window = 32;      ///< pipelined requests per connection
  std::size_t tiles = 6;
  std::uint64_t seed = 20130801;  // ICPP'13
  bool smoke = false;
  bool cluster = false;
  bool trace_overhead = false;
  std::string json_path;
};

Options parse(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << "missing value after " << arg << "\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--requests") {
        opt.requests = medcc::util::parse_flag_size(next());
      } else if (arg == "--threads") {
        opt.threads = medcc::util::parse_flag_size(next());
      } else if (arg == "--connections") {
        opt.connections = medcc::util::parse_flag_size(next());
      } else if (arg == "--window") {
        opt.window = medcc::util::parse_flag_size(next());
      } else if (arg == "--tiles") {
        opt.tiles = medcc::util::parse_flag_size(next());
      } else if (arg == "--seed") {
        opt.seed = medcc::util::parse_flag_size(next());
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--cluster") {
        opt.cluster = true;
      } else if (arg == "--trace-overhead") {
        opt.trace_overhead = true;
      } else if (arg == "--json") {
        opt.json_path = next();
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        std::exit(2);
      }
    }
  } catch (const std::exception& ex) {
    std::cerr << "invalid argument value: " << ex.what() << "\n";
    std::exit(2);
  }
  if (opt.smoke) {
    opt.requests = 600;
    opt.threads = 2;
    opt.connections = 2;
    opt.window = 16;
    opt.tiles = 4;
  }
  if (opt.requests == 0 || opt.threads == 0) {
    std::cerr << "--requests and --threads must be positive\n";
    std::exit(2);
  }
  return opt;
}

/// One request everybody resubmits verbatim (the wire cache keys on the
/// exact body bytes, so one shared request makes every post-prime send
/// an exact hit).
SchedulingRequest build_request(const Options& opt) {
  medcc::util::Prng rng(opt.seed);
  auto wf = medcc::workflow::montage_like(opt.tiles, rng);
  auto instance = std::make_shared<const Instance>(
      Instance::from_model(std::move(wf), medcc::cloud::example_catalog()));
  medcc::sched::Schedule cheapest;
  cheapest.type_of.assign(instance->module_count(),
                          instance->catalog().cheapest_rate_index());
  const double cmin = medcc::sched::total_cost(*instance, cheapest);
  SchedulingRequest request;
  request.instance = std::move(instance);
  request.budget = cmin * 1.35 + 1.0;
  // Critical-Greedy keeps the single priming solve (the only solver
  // call in the whole bench) cheap.
  request.solver = "cg";
  return request;
}

/// The CPUs this process may run on (its affinity mask), which is what
/// the scheduler can actually give the server and the clients -- on a
/// container it may be fewer than hardware_concurrency() reports.
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

/// Restricts the calling thread (and every thread it creates from now
/// on) to `cpus`; an empty list leaves it where it is.
void pin_self(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0) {
    std::cerr << "FAIL: sched_setaffinity failed\n";
    std::exit(1);
  }
}

/// Pins the calling thread for one scope and restores its mask after.
class ScopedPin {
public:
  explicit ScopedPin(const std::vector<int>& cpus) {
    CPU_ZERO(&saved_);
    restore_ = !cpus.empty() &&
               ::sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    pin_self(cpus);
  }
  ~ScopedPin() {
    if (restore_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

private:
  cpu_set_t saved_;
  bool restore_ = false;
};

/// Where blast() runs the server's threads and the client threads.
/// Both empty: wherever the scheduler puts them.
struct Placement {
  std::vector<int> server;
  std::vector<int> client;
};

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct BlastReport {
  std::size_t io_threads = 0;
  std::size_t client_threads = 0;
  std::uint64_t requests = 0;
  /// Spawn-to-join window, connects included: the --trace-overhead
  /// instrument.
  double wall_seconds = 0.0;
  double ns_per_request = 0.0;
  /// The slowest client's own run (LoadStats::wall_seconds), connects
  /// excluded; throughput_rps is timed from it.
  double run_seconds = 0.0;
  double throughput_rps = 0.0;
  /// Process CPU over the window minus the main and client threads'
  /// own CPU: the reactors' and workers' work per request.
  double server_cpu_ns_per_request = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t fastpath_hits = 0;
  /// Samples in the server's stage_wire_fastpath row: traced hits.
  std::uint64_t traced_fastpath_samples = 0;
};

/// Starts a fresh service + server, primes the caches with one request,
/// then blasts `opt.requests` verbatim duplicates from `client_threads`
/// MultiClients and reports aggregate client-side numbers and the
/// server's CPU per request. Non-null tracers turn on end-to-end
/// tracing: the client mints a context per request, the server records
/// spans against it.
BlastReport blast(const Options& opt, const SchedulingRequest& request,
                  std::size_t io_threads, bool wire_cache_on,
                  std::size_t client_threads,
                  medcc::obs::Tracer* server_tracer = nullptr,
                  medcc::obs::Tracer* client_tracer = nullptr,
                  const Placement& placement = {}) {
  // Threads inherit their creator's mask: the service and server are
  // built on the server CPUs, the client threads spawned on the client
  // CPUs.
  const ScopedPin pin(placement.server);
  medcc::service::ServiceConfig service_config;
  service_config.threads = 2;
  service_config.queue_capacity = opt.requests + 16;
  service_config.cache_capacity = 4096;
  service_config.wire_cache_capacity = wire_cache_on ? 1024 : 0;
  service_config.tracer = server_tracer;
  medcc::service::SchedulingService service(std::move(service_config));

  medcc::net::ServerConfig server_config;
  server_config.io_threads = io_threads;
  server_config.tracer = server_tracer;
  medcc::net::Server server(service, server_config);

  MultiClientConfig client_config;
  client_config.port = server.port();
  client_config.connections = opt.connections;
  client_config.window = opt.window;
  client_config.tracer = client_tracer;

  // Prime: the first occurrence pays the solver; afterwards the result
  // cache (and, when enabled, the wire cache) hold the answer, so the
  // measured stream exercises only the duplicate-serving path.
  {
    MultiClient primer(client_config);
    const LoadStats primed = primer.run(request, 1);
    if (primed.ok != 1) {
      std::cerr << "FAIL: priming request failed\n";
      std::exit(1);
    }
  }
  pin_self(placement.client);

  const std::size_t per_thread = opt.requests / client_threads;
  const std::size_t remainder = opt.requests % client_threads;
  std::vector<LoadStats> results(client_threads);
  std::vector<std::int64_t> client_cpu(client_threads, 0);
  std::vector<std::thread> threads;
  threads.reserve(client_threads);
  const auto started = std::chrono::steady_clock::now();
  const std::int64_t process_cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  const std::int64_t main_cpu0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  for (std::size_t t = 0; t < client_threads; ++t) {
    const std::size_t quota = per_thread + (t < remainder ? 1 : 0);
    threads.emplace_back([&, t, quota] {
      const std::int64_t cpu0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      {
        MultiClient client(client_config);
        results[t] = client.run(request, quota);
      }
      client_cpu[t] = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });
  }
  for (auto& thread : threads) thread.join();
  const std::int64_t main_cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - main_cpu0;
  const std::int64_t process_cpu =
      cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  BlastReport report;
  report.io_threads = server.reactor_count();
  report.client_threads = client_threads;
  report.wall_seconds = wall;
  std::int64_t server_cpu = process_cpu - main_cpu;
  std::vector<double> latencies;
  latencies.reserve(opt.requests);
  for (std::size_t t = 0; t < client_threads; ++t) {
    const LoadStats& r = results[t];
    report.requests += r.ok;
    report.run_seconds = std::max(report.run_seconds, r.wall_seconds);
    server_cpu -= client_cpu[t];
    if (r.failed != 0) {
      std::cerr << "FAIL: " << r.failed << " request(s) failed\n";
      std::exit(1);
    }
    latencies.insert(latencies.end(), r.latency_seconds.begin(),
                     r.latency_seconds.end());
  }
  if (report.requests != opt.requests) {
    std::cerr << "FAIL: expected " << opt.requests << " responses, got "
              << report.requests << "\n";
    std::exit(1);
  }
  const auto requests = static_cast<double>(report.requests);
  if (wall > 0.0) report.ns_per_request = wall * 1e9 / requests;
  if (report.run_seconds > 0.0)
    report.throughput_rps = requests / report.run_seconds;
  report.server_cpu_ns_per_request = static_cast<double>(server_cpu) / requests;
  std::sort(latencies.begin(), latencies.end());
  const auto at = [&](double percent) {
    if (latencies.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        percent / 100.0 * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(rank, latencies.size() - 1)] * 1e3;
  };
  report.p50_ms = at(50.0);
  report.p95_ms = at(95.0);
  report.p99_ms = at(99.0);
  report.fastpath_hits =
      service.metrics().value(medcc::service::Counter::wire_fastpath_hits);
  report.traced_fastpath_samples =
      service.metrics()
          .snapshot()[medcc::service::Latency::stage_wire_fastpath]
          .count();

  server.stop();
  service.shutdown();
  return report;
}

/// The median of one field over a set of runs.
double median_of(const std::vector<BlastReport>& runs,
                 double BlastReport::*field) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const BlastReport& r : runs) values.push_back(r.*field);
  return values.empty() ? 0.0 : medcc::util::median(values);
}

/// Runs `pairs` interleaved (a, b) pairs, alternating which side goes
/// first so slow drift (steal, thermal, a neighbour's burst) lands on
/// both sides, and returns each side's runs.
template <typename RunA, typename RunB>
std::pair<std::vector<BlastReport>, std::vector<BlastReport>> interleave(
    int pairs, const RunA& run_a, const RunB& run_b) {
  std::pair<std::vector<BlastReport>, std::vector<BlastReport>> runs;
  for (int pair = 0; pair < pairs; ++pair) {
    if (pair % 2 == 0) {
      runs.first.push_back(run_a());
      runs.second.push_back(run_b());
    } else {
      runs.second.push_back(run_b());
      runs.first.push_back(run_a());
    }
  }
  return runs;
}

/// The median over pairs of num[i].*field / den[i].*field.
double median_ratio(const std::vector<BlastReport>& num,
                    const std::vector<BlastReport>& den,
                    double BlastReport::*field) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < num.size(); ++i)
    if (den[i].*field > 0.0) ratios.push_back(num[i].*field / den[i].*field);
  return ratios.empty() ? 0.0 : medcc::util::median(ratios);
}

struct HitPathResult {
  std::vector<BlastReport> wire_on;
  std::vector<BlastReport> wire_off;
  double cpu_speedup = 0.0;  ///< median per-pair server-CPU ratio (gated)
  double wall_speedup = 0.0;
};

struct ReactorResult {
  std::vector<BlastReport> one;
  std::vector<BlastReport> four;
  double speedup = 0.0;  ///< median per-pair throughput ratio
  std::size_t usable_cpus = 0;
  bool asserted = false;
};

void write_json(const std::string& path, const Options& opt,
                const HitPathResult& hit, const ReactorResult& scale) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n"
      << "  \"schema\": \"medcc-bench-serving/v1\",\n"
      << "  \"bench\": \"net_throughput\",\n"
      << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"usable_cpus\": " << scale.usable_cpus << ",\n"
      << "  \"reactor_gate\": \""
      << (scale.asserted ? "asserted" : "skipped") << "\",\n"
      << "  \"reactor_speedup\": " << scale.speedup << ",\n"
      << "  \"requests\": " << opt.requests << ",\n"
      << "  \"hit_path\": {\n"
      << "    \"pairs\": " << hit.wire_on.size() << ",\n"
      << "    \"fastpath_ns_op\": "
      << median_of(hit.wire_on, &BlastReport::ns_per_request) << ",\n"
      << "    \"encode_ns_op\": "
      << median_of(hit.wire_off, &BlastReport::ns_per_request) << ",\n"
      << "    \"speedup\": " << hit.wall_speedup << ",\n"
      << "    \"fastpath_server_cpu_ns_op\": "
      << median_of(hit.wire_on, &BlastReport::server_cpu_ns_per_request)
      << ",\n"
      << "    \"encode_server_cpu_ns_op\": "
      << median_of(hit.wire_off, &BlastReport::server_cpu_ns_per_request)
      << ",\n"
      << "    \"server_cpu_speedup\": " << hit.cpu_speedup << "\n"
      << "  },\n"
      << "  \"reactors\": [\n";
  const std::vector<BlastReport>* sides[] = {&scale.one, &scale.four};
  for (std::size_t i = 0; i < 2; ++i) {
    const std::vector<BlastReport>& runs = *sides[i];
    out << "    {\"io_threads\": " << runs.front().io_threads
        << ", \"client_threads\": " << runs.front().client_threads
        << ", \"throughput_rps\": "
        << median_of(runs, &BlastReport::throughput_rps)
        << ", \"p50_ms\": " << median_of(runs, &BlastReport::p50_ms)
        << ", \"p95_ms\": " << median_of(runs, &BlastReport::p95_ms)
        << ", \"p99_ms\": " << median_of(runs, &BlastReport::p99_ms) << "}"
        << (i == 0 ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// ---------------------------------------------------------------------
// --trace-overhead: hit path untraced vs traced, best of 3
// ---------------------------------------------------------------------

void write_trace_json(const std::string& path, const Options& opt,
                      double untraced_ns, double traced_ns,
                      double overhead_pct,
                      const medcc::obs::TracerSnapshot& client,
                      std::uint64_t server_fastpath_spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n"
      << "  \"schema\": \"medcc-bench-serving/v1\",\n"
      << "  \"bench\": \"net_throughput\",\n"
      << "  \"mode\": \""
      << (opt.smoke ? "trace-overhead-smoke" : "trace-overhead") << "\",\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"requests\": " << opt.requests << ",\n"
      << "  \"trace_overhead\": {\n"
      << "    \"untraced_ns_op\": " << untraced_ns << ",\n"
      << "    \"traced_ns_op\": " << traced_ns << ",\n"
      << "    \"overhead_pct\": " << overhead_pct << ",\n"
      << "    \"client_contexts_minted\": " << client.started << ",\n"
      << "    \"client_sampled\": " << client.sampled << ",\n"
      << "    \"server_fastpath_spans\": " << server_fastpath_spans << "\n"
      << "  }\n}\n";
}

/// The --trace-overhead entry point: hit-path blasts with tracing off
/// vs on (default head sampling), best of 3 each; the traced path must
/// stay within 5% of the untraced ns/request.
int run_trace_overhead_mode(const Options& base_opt,
                            const SchedulingRequest& request) {
  // A per-request delta of a few percent needs long blasts to rise
  // above loopback scheduling noise; requests are ~1.5us each on the
  // fast path, so even the lengthened smoke stays fast.
  Options opt = base_opt;
  opt.requests = std::max<std::size_t>(opt.requests, 6000);

  std::cout << "=== net_throughput --trace-overhead: hit path ===\n"
            << "requests=" << opt.requests << " connections="
            << opt.connections << " window=" << opt.window
            << " sample_every="
            << medcc::obs::Tracer::Config{}.sample_every << "\n\n";

  // One tracer pair across the traced runs; counters accumulate.
  medcc::obs::Tracer server_tracer;
  medcc::obs::Tracer client_tracer;
  // Interleaved best-of-N: alternating untraced/traced runs spreads
  // slow drift (thermal, background load) across both sides instead of
  // biasing whichever side ran last.
  constexpr int kRuns = 3;
  double untraced_ns = 0.0;
  double traced_ns = 0.0;
  std::uint64_t traced_fastpath = 0;
  std::uint64_t server_fastpath_spans = 0;  // summed over the traced runs
  for (int run = 0; run < kRuns; ++run) {
    const BlastReport untraced = blast(opt, request, 1, true, 1);
    if (run == 0 || untraced.ns_per_request < untraced_ns)
      untraced_ns = untraced.ns_per_request;
    const BlastReport traced =
        blast(opt, request, 1, true, 1, &server_tracer, &client_tracer);
    if (run == 0 || traced.ns_per_request < traced_ns)
      traced_ns = traced.ns_per_request;
    traced_fastpath = traced.fastpath_hits;
    server_fastpath_spans += traced.traced_fastpath_samples;
  }

  const medcc::obs::TracerSnapshot client_snap = client_tracer.snapshot();
  const double overhead_pct =
      untraced_ns > 0.0 ? (traced_ns - untraced_ns) / untraced_ns * 100.0
                        : 0.0;

  // On a single-core host the client's context minting serializes into
  // the server's hit path instead of overlapping with it through the
  // pipelined window (and run-to-run scheduling noise alone is a few
  // percent), so the 5% budget only binds from 2 cores; below that a
  // relaxed 15% bound still catches real regressions.
  const unsigned cores = std::thread::hardware_concurrency();
  const double budget_pct = cores >= 2 ? 5.0 : 15.0;

  medcc::util::Table table({"hit path", "ns/req"});
  table.add_row({"untraced", medcc::util::fmt(untraced_ns)});
  table.add_row({"traced (sampled)", medcc::util::fmt(traced_ns)});
  std::cout << table.render() << "\n"
            << "trace overhead: " << medcc::util::fmt(overhead_pct)
            << "% (budget " << medcc::util::fmt(budget_pct) << "%"
            << (cores < 2 ? ", relaxed: single-core host" : "") << ")\n"
            << "client contexts minted: " << client_snap.started
            << " (sampled " << client_snap.sampled << ")\n"
            << "server fast-path spans: " << server_fastpath_spans << "\n";

  if (!opt.json_path.empty())
    write_trace_json(opt.json_path, opt, untraced_ns, traced_ns,
                     overhead_pct, client_snap, server_fastpath_spans);

  // The traced stream must actually have been traced, on the fast path.
  if (traced_fastpath < opt.requests) {
    std::cerr << "FAIL: traced run left the fast path (" << traced_fastpath
              << " of " << opt.requests << " hits)\n";
    return 1;
  }
  if (client_snap.started < static_cast<std::uint64_t>(opt.requests)) {
    std::cerr << "FAIL: client minted " << client_snap.started
              << " trace contexts for " << opt.requests * kRuns
              << " traced requests\n";
    return 1;
  }
  if (server_fastpath_spans == 0) {
    std::cerr << "FAIL: server recorded no traced fast-path samples\n";
    return 1;
  }
  if (overhead_pct > budget_pct) {
    std::cerr << "FAIL: trace overhead " << overhead_pct
              << "% above the " << budget_pct << "% budget\n";
    return 1;
  }
  std::cout << (opt.smoke ? "smoke OK\n" : "OK\n");
  return 0;
}

// ---------------------------------------------------------------------
// --cluster: three in-process replicas, mid-run kill
// ---------------------------------------------------------------------

/// One replica: its service, its server, and its replication channel to
/// the other two. The replicator is created after every server has
/// bound (ports are only known then), so on_cache_insert reads it
/// through an atomic slot.
struct ClusterNode {
  std::shared_ptr<std::atomic<medcc::cluster::Replicator*>> repl_slot;
  std::unique_ptr<medcc::service::SchedulingService> service;
  std::unique_ptr<medcc::net::Server> server;
  std::unique_ptr<medcc::cluster::Replicator> replicator;
};

struct ClusterReport {
  std::size_t nodes = 0;
  std::size_t tenants = 0;
  std::uint64_t requests = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t failovers = 0;
  std::uint64_t transport_errors = 0;
  std::size_t killed_node = 0;
};

/// Builds a 3-replica cluster, primes `tenants` tenant caches through
/// it (each prime replicates to the other two replicas), then blasts
/// `opt.requests` tenant-sharded duplicates from `opt.threads`
/// ClusterClients while one replica is hard-stopped at the halfway
/// mark. Every request must still be answered -- the ring walks to a
/// survivor whose replicated cache already holds the tenant's entry.
ClusterReport run_cluster(const Options& opt,
                          const SchedulingRequest& request) {
  constexpr std::size_t kNodes = 3;
  const std::size_t tenants = std::max<std::size_t>(12, opt.threads * 3);

  std::vector<ClusterNode> nodes(kNodes);
  std::vector<medcc::net::Endpoint> endpoints;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ClusterNode& node = nodes[i];
    node.repl_slot =
        std::make_shared<std::atomic<medcc::cluster::Replicator*>>(nullptr);
    medcc::service::ServiceConfig service_config;
    service_config.threads = 2;
    service_config.queue_capacity = opt.requests + 16;
    service_config.cache_capacity = 4096;
    service_config.on_cache_insert =
        [slot = node.repl_slot](std::string payload,
                                medcc::obs::TraceContext trace) {
      if (auto* repl = slot->load(std::memory_order_acquire))
        repl->publish(payload, trace);
    };
    node.service = std::make_unique<medcc::service::SchedulingService>(
        std::move(service_config));

    medcc::net::ServerConfig server_config;
    server_config.io_threads = 1;
    server_config.node_id = "bench-node" + std::to_string(i);
    server_config.repl_apply = [svc = node.service.get()](
                                   std::string_view payload) {
      return svc->apply_replicated_record(payload);
    };
    node.server = std::make_unique<medcc::net::Server>(*node.service,
                                                       server_config);
    endpoints.push_back({"127.0.0.1", node.server->port()});
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    medcc::cluster::ClusterConfig cluster_config;
    cluster_config.node_id = "bench-node" + std::to_string(i);
    for (std::size_t j = 0; j < kNodes; ++j)
      if (j != i) cluster_config.peers.push_back(endpoints[j]);
    nodes[i].replicator = std::make_unique<medcc::cluster::Replicator>(
        std::move(cluster_config));
    nodes[i].repl_slot->store(nodes[i].replicator.get(),
                              std::memory_order_release);
    nodes[i].replicator->start();
  }

  medcc::net::ClusterClientConfig client_config;
  client_config.endpoints = endpoints;
  client_config.down_cooldown_ms = 200.0;  // re-probe the corpse quickly

  // Prime every tenant once (one solve on its primary) and wait for
  // the records to reach the other replicas: each replicator's queues
  // drained and every send acked.
  std::vector<std::string> tenant_ids;
  tenant_ids.reserve(tenants);
  {
    medcc::net::ClusterClient primer(client_config);
    for (std::size_t t = 0; t < tenants; ++t) {
      SchedulingRequest primed = request;
      primed.tenant = "tenant-" + std::to_string(t);
      tenant_ids.push_back(primed.tenant);
      const auto response = primer.solve(primed);
      if (!response.ok()) {
        std::cerr << "FAIL: priming tenant " << primed.tenant
                  << " failed: " << response.error << "\n";
        std::exit(1);
      }
    }
  }
  for (int spin = 0;; ++spin) {
    bool settled = true;
    for (const ClusterNode& node : nodes)
      for (const auto& peer : node.replicator->status().peers)
        if (peer.queued != 0 || peer.sent != peer.acked) settled = false;
    if (settled) break;
    if (spin > 1000) {
      std::cerr << "FAIL: replication did not settle after priming\n";
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Measured run in two halves with a deterministic mid-run kill: the
  // replica that is primary for tenant 0 is hard-stopped between them,
  // so the second half is guaranteed to route at least that tenant's
  // requests through the ring walk onto a survivor's replicated cache.
  const std::size_t killed =
      medcc::net::ClusterClient(client_config).primary_index(tenant_ids[0]);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> run_failed{false};
  std::vector<std::vector<double>> latencies(opt.threads);
  std::vector<std::uint64_t> failovers(opt.threads, 0);
  std::vector<std::uint64_t> errors(opt.threads, 0);

  // Every client thread cycles the tenant list (offset by thread id so
  // primaries interleave). Clients are per-thread and per-half:
  // ClusterClient is not thread-safe, and a fresh client in the second
  // half also exercises failover on first contact with the dead node.
  const auto run_half = [&](std::size_t total) {
    const std::size_t per_thread = total / opt.threads;
    const std::size_t remainder = total % opt.threads;
    std::vector<std::thread> threads;
    threads.reserve(opt.threads);
    for (std::size_t t = 0; t < opt.threads; ++t) {
      const std::size_t quota = per_thread + (t < remainder ? 1 : 0);
      threads.emplace_back([&, t, quota] {
        medcc::net::ClusterClient client(client_config);
        for (std::size_t k = 0; k < quota; ++k) {
          SchedulingRequest duplicate = request;
          duplicate.tenant = tenant_ids[(t + k) % tenant_ids.size()];
          const auto sent = std::chrono::steady_clock::now();
          try {
            const auto response = client.solve(duplicate);
            if (!response.ok()) {
              std::cerr << "FAIL: cluster solve rejected: " << response.error
                        << "\n";
              run_failed.store(true, std::memory_order_relaxed);
              return;
            }
          } catch (const std::exception& ex) {
            std::cerr << "FAIL: cluster solve failed: " << ex.what() << "\n";
            run_failed.store(true, std::memory_order_relaxed);
            return;
          }
          latencies[t].push_back(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - sent)
                                     .count());
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        for (const auto& stat : client.stats()) {
          failovers[t] += stat.failovers;
          errors[t] += stat.errors;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  };

  const auto started = std::chrono::steady_clock::now();
  run_half(opt.requests / 2);
  nodes[killed].server->stop();
  run_half(opt.requests - opt.requests / 2);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  if (run_failed.load()) std::exit(1);

  ClusterReport report;
  report.nodes = kNodes;
  report.tenants = tenants;
  report.requests = completed.load();
  report.wall_seconds = wall;
  report.killed_node = killed;
  std::vector<double> all;
  all.reserve(opt.requests);
  for (std::size_t t = 0; t < opt.threads; ++t) {
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    report.failovers += failovers[t];
    report.transport_errors += errors[t];
  }
  if (report.requests != opt.requests) {
    std::cerr << "FAIL: expected " << opt.requests << " responses, got "
              << report.requests << "\n";
    std::exit(1);
  }
  if (wall > 0.0)
    report.throughput_rps = static_cast<double>(report.requests) / wall;
  std::sort(all.begin(), all.end());
  const auto at = [&](double percent) {
    if (all.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        percent / 100.0 * static_cast<double>(all.size() - 1) + 0.5);
    return all[std::min(rank, all.size() - 1)] * 1e3;
  };
  report.p50_ms = at(50.0);
  report.p95_ms = at(95.0);
  report.p99_ms = at(99.0);

  for (ClusterNode& node : nodes) {
    node.replicator->stop();
    node.server->stop();
    node.service->shutdown();
  }
  return report;
}

void write_cluster_json(const std::string& path, const Options& opt,
                        const ClusterReport& report) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n"
      << "  \"schema\": \"medcc-bench-serving/v1\",\n"
      << "  \"bench\": \"net_throughput\",\n"
      << "  \"mode\": \"" << (opt.smoke ? "cluster-smoke" : "cluster")
      << "\",\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"requests\": " << report.requests << ",\n"
      << "  \"cluster\": {\n"
      << "    \"nodes\": " << report.nodes << ",\n"
      << "    \"tenants\": " << report.tenants << ",\n"
      << "    \"killed_node\": " << report.killed_node << ",\n"
      << "    \"throughput_rps\": " << report.throughput_rps << ",\n"
      << "    \"p50_ms\": " << report.p50_ms << ",\n"
      << "    \"p95_ms\": " << report.p95_ms << ",\n"
      << "    \"p99_ms\": " << report.p99_ms << ",\n"
      << "    \"failovers\": " << report.failovers << ",\n"
      << "    \"transport_errors\": " << report.transport_errors << "\n"
      << "  }\n}\n";
}

/// The --cluster entry point: run, print, assert, write JSON.
int run_cluster_mode(const Options& opt, const SchedulingRequest& request) {
  std::cout << "=== net_throughput --cluster: replicated serving ===\n"
            << "requests=" << opt.requests << " threads=" << opt.threads
            << " tiles=" << opt.tiles << "\n\n";
  const ClusterReport report = run_cluster(opt, request);

  medcc::util::Table table({"cluster serving", "value"});
  table.add_row({"replicas", std::to_string(report.nodes)});
  table.add_row({"tenants", std::to_string(report.tenants)});
  table.add_row({"req/s", medcc::util::fmt(report.throughput_rps)});
  table.add_row({"p50 (ms)", medcc::util::fmt(report.p50_ms)});
  table.add_row({"p95 (ms)", medcc::util::fmt(report.p95_ms)});
  table.add_row({"p99 (ms)", medcc::util::fmt(report.p99_ms)});
  table.add_row({"failovers", std::to_string(report.failovers)});
  table.add_row({"transport errors", std::to_string(report.transport_errors)});
  std::cout << table.render() << "\n"
            << "node " << report.killed_node
            << " killed at the halfway mark; every request answered\n";

  if (!opt.json_path.empty()) write_cluster_json(opt.json_path, opt, report);

  if (report.failovers == 0) {
    std::cerr << "FAIL: killed a replica mid-run but observed no failover\n";
    return 1;
  }
  std::cout << (opt.smoke ? "smoke OK\n" : "OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const SchedulingRequest request = build_request(opt);
  if (opt.cluster) return run_cluster_mode(opt, request);
  if (opt.trace_overhead) return run_trace_overhead_mode(opt, request);
  const std::vector<int> cpus = usable_cpus();

  std::cout << "=== net_throughput: serving-path benchmark ===\n"
            << "requests=" << opt.requests << " threads=" << opt.threads
            << " connections=" << opt.connections << " window=" << opt.window
            << " tiles=" << opt.tiles
            << " host_cores=" << std::thread::hardware_concurrency()
            << " usable_cpus=" << cpus.size() << "\n\n";

  // -- hit path: wire cache on vs off, one reactor, one client thread --
  constexpr int kHitPairs = 5;
  HitPathResult hit;
  std::tie(hit.wire_on, hit.wire_off) = interleave(
      kHitPairs, [&] { return blast(opt, request, 1, true, 1); },
      [&] { return blast(opt, request, 1, false, 1); });
  for (const BlastReport& on : hit.wire_on)
    if (on.fastpath_hits < opt.requests) {
      std::cerr << "FAIL: expected every measured request on the fast "
                << "path, got " << on.fastpath_hits << " of " << opt.requests
                << "\n";
      return 1;
    }
  for (const BlastReport& off : hit.wire_off)
    if (off.fastpath_hits != 0) {
      std::cerr << "FAIL: fast-path hits with the wire cache disabled\n";
      return 1;
    }
  hit.cpu_speedup = median_ratio(hit.wire_off, hit.wire_on,
                                 &BlastReport::server_cpu_ns_per_request);
  hit.wall_speedup =
      median_ratio(hit.wire_off, hit.wire_on, &BlastReport::ns_per_request);

  medcc::util::Table hit_table({"exact-hit serving", "server CPU ns/req",
                                "wall ns/req", "p50 (ms)", "p99 (ms)"});
  const auto hit_row = [&](const std::string& label,
                           const std::vector<BlastReport>& runs) {
    hit_table.add_row(
        {label,
         medcc::util::fmt(
             median_of(runs, &BlastReport::server_cpu_ns_per_request)),
         medcc::util::fmt(median_of(runs, &BlastReport::ns_per_request)),
         medcc::util::fmt(median_of(runs, &BlastReport::p50_ms)),
         medcc::util::fmt(median_of(runs, &BlastReport::p99_ms))});
  };
  hit_row("re-encode (wire cache off)", hit.wire_off);
  hit_row("fast path (wire cache on)", hit.wire_on);
  std::cout << hit_table.render() << "\n"
            << "hit-path speedup (fast path vs re-encode), median of "
            << kHitPairs << " pairs: " << medcc::util::fmt(hit.cpu_speedup)
            << "x on server CPU (gated), "
            << medcc::util::fmt(hit.wall_speedup) << "x on wall time\n\n";

  // -- reactor scaling: 1 vs 4 io threads, fast-path-heavy traffic --
  // The clients run in this process, so 4 reactors can only show their
  // scaling when neither side has to share CPUs with the other.
  constexpr std::size_t kReactors = 4;
  constexpr int kReactorPairs = 3;
  ReactorResult scale;
  scale.usable_cpus = cpus.size();
  scale.asserted = cpus.size() >= kReactors + opt.threads;
  Placement placement;
  if (scale.asserted) {
    placement.server.assign(cpus.begin(), cpus.begin() + kReactors);
    placement.client.assign(cpus.begin() + kReactors,
                            cpus.begin() + kReactors + opt.threads);
  }
  std::tie(scale.one, scale.four) = interleave(
      kReactorPairs,
      [&] {
        return blast(opt, request, 1, true, opt.threads, nullptr, nullptr,
                     placement);
      },
      [&] {
        return blast(opt, request, kReactors, true, opt.threads, nullptr,
                     nullptr, placement);
      });
  scale.speedup =
      median_ratio(scale.four, scale.one, &BlastReport::throughput_rps);

  medcc::util::Table scale_table({"reactors", "req/s", "p50 (ms)",
                                  "p95 (ms)", "p99 (ms)"});
  for (const std::vector<BlastReport>* runs : {&scale.one, &scale.four})
    scale_table.add_row(
        {std::to_string(runs->front().io_threads),
         medcc::util::fmt(median_of(*runs, &BlastReport::throughput_rps)),
         medcc::util::fmt(median_of(*runs, &BlastReport::p50_ms)),
         medcc::util::fmt(median_of(*runs, &BlastReport::p95_ms)),
         medcc::util::fmt(median_of(*runs, &BlastReport::p99_ms))});
  std::cout << scale_table.render() << "\n"
            << "reactor speedup (" << kReactors
            << " vs 1 io threads), median of " << kReactorPairs
            << " pairs: " << medcc::util::fmt(scale.speedup) << "x\n";

  if (!opt.json_path.empty()) write_json(opt.json_path, opt, hit, scale);

  if (hit.cpu_speedup < 3.0) {
    std::cerr << "FAIL: hit-path server-CPU speedup " << hit.cpu_speedup
              << "x below the 3x target\n";
    return 1;
  }
  if (scale.asserted) {
    if (scale.speedup < 2.0) {
      std::cerr << "FAIL: reactor speedup " << scale.speedup
                << "x below the 2x target with " << placement.server.size()
                << " server CPUs and " << placement.client.size()
                << " client CPUs\n";
      return 1;
    }
  } else {
    std::cout << "reactor-speedup assertion skipped: " << cpus.size()
              << " usable CPU(s), needs >= " << kReactors + opt.threads
              << " (" << kReactors << " reactors + " << opt.threads
              << " client threads on disjoint CPUs)\n";
  }
  std::cout << (opt.smoke ? "smoke OK\n" : "OK\n");
  return 0;
}
