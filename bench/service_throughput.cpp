// Open-loop load generator for the scheduling service: replays a
// duplicate-heavy stream of randomized workflow instances (verbatim
// repeats plus module/catalog-permuted twins) against the service with
// the result cache enabled and disabled, and reports throughput and
// latency percentiles for both runs.
//
// The duplicate-heavy mix models a production queue where many users
// resubmit the same pipelines: only the first occurrence of each
// distinct problem pays a solver call, so with the cache on the stream
// should complete several times faster than with the cache off (the
// acceptance target of the service PR is >= 5x on this workload).
//
// Usage: service_throughput [--requests N] [--distinct K] [--threads T]
//                           [--solver NAME] [--seed S] [--smoke]
//                           [--json PATH] [--warm-start --cache-dir DIR]
// --smoke shrinks the stream so the binary doubles as a ctest smoke
// check; it exits non-zero if the two runs disagree on any response.
// --json writes both runs under schema "medcc-bench-serving/v1"
// (documented in docs/perf.md) for the CI-tracked baseline.
//
// --warm-start exercises durable persistence instead of the in-memory
// comparison: a seeding run fills DIR (snapshot + journal), then the
// same stream is replayed against a freshly constructed service that
// warm-starts from DIR (asserting zero cache misses and responses
// byte-identical to the seeding run) and against one restarted without
// any prior state. The warm restart must finish the stream at least 5x
// faster than the cold one -- the payoff persistence exists for.
#include <chrono>
#include <cstddef>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/vm_type.hpp"
#include "sched/instance.hpp"
#include "service/persistence.hpp"
#include "service/service.hpp"
#include "util/flags.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "workflow/patterns.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::sched::Instance;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;
using medcc::service::SchedulingService;
using medcc::service::ServiceConfig;
using medcc::util::Prng;
using medcc::workflow::Workflow;

struct Options {
  std::size_t requests = 1000;
  std::size_t distinct = 16;
  std::size_t threads = 4;
  /// Workflow width knob; larger tiles make each solve more expensive,
  /// which is what a duplicate-heavy cache is for.
  std::size_t tiles = 12;
  /// The default measures the memoization win where it matters: the
  /// metaheuristic costs milliseconds per solve while a cache hit costs
  /// a fingerprint. Critical-Greedy itself runs in ~0.1 ms at these
  /// sizes, i.e. about one fingerprint, so `--solver cg` shows service
  /// overhead rather than cache value.
  std::string solver = "genetic";
  std::uint64_t seed = 20130801;  // ICPP'13
  bool smoke = false;
  bool warm_start = false;
  std::string cache_dir;
  std::string json_path;
};

Options parse(int argc, char** argv) {
  Options opt;
  // Strict whole-string numeric parsing (util::flags): "12x" or "-1" is
  // an immediate usage error, never a silently truncated value.
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
      } else if (arg == "--distinct") {
        opt.distinct = medcc::util::parse_flag_size(next());
      } else if (arg == "--threads") {
        opt.threads = medcc::util::parse_flag_size(next());
      } else if (arg == "--tiles") {
        opt.tiles = medcc::util::parse_flag_size(next());
      } else if (arg == "--solver") {
        opt.solver = next();
      } else if (arg == "--seed") {
        opt.seed = medcc::util::parse_flag_size(next());
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--warm-start") {
        opt.warm_start = true;
      } else if (arg == "--cache-dir") {
        opt.cache_dir = next();
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
    opt.requests = 96;
    opt.distinct = 4;
    opt.threads = 2;
    opt.tiles = 3;
  }
  if (opt.warm_start) {
    if (opt.cache_dir.empty()) {
      std::cerr << "--warm-start requires --cache-dir\n";
      std::exit(2);
    }
    if (opt.smoke) {
      // Fewer requests over more, wider workflows: the stream stays
      // fast while the solver work the warm restart avoids is large
      // enough that its advantage is unambiguous.
      opt.requests = 32;
      opt.distinct = 8;
      opt.tiles = 8;
    }
    // One worker makes insertion order (and therefore the persisted
    // entries and every replayed response) deterministic, which the
    // byte-identity assertion depends on.
    opt.threads = 1;
  }
  if (opt.distinct == 0 || opt.requests == 0) {
    std::cerr << "--requests and --distinct must be positive\n";
    std::exit(2);
  }
  return opt;
}

/// Rebuilds `wf` with modules and edges inserted in a shuffled order --
/// the same problem, different index layout.
Workflow permute_workflow(const Workflow& wf, Prng& rng) {
  std::vector<std::size_t> order(wf.module_count());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<std::size_t> new_id(wf.module_count());
  Workflow out;
  for (const auto old_id : order) {
    const auto& mod = wf.module(old_id);
    new_id[old_id] = mod.is_fixed()
                         ? out.add_fixed_module(mod.name, *mod.fixed_time)
                         : out.add_module(mod.name, mod.workload);
  }
  std::vector<std::size_t> edges(wf.graph().edge_count());
  for (std::size_t e = 0; e < edges.size(); ++e) edges[e] = e;
  rng.shuffle(edges);
  for (const auto e : edges) {
    const auto& edge = wf.graph().edge(e);
    out.add_dependency(new_id[edge.src], new_id[edge.dst], wf.data_size(e));
  }
  return out;
}

VmCatalog permute_catalog(const VmCatalog& catalog, Prng& rng) {
  auto types = catalog.types();
  rng.shuffle(types);
  return VmCatalog(std::move(types));
}

struct Problem {
  std::shared_ptr<const Instance> instance;
  double budget = 0.0;
};

/// `distinct` base problems (Montage- and CyberShake-shaped), plus one
/// permuted twin of each; the twin shares the base's budget.
std::vector<Problem> build_problems(const Options& opt) {
  std::vector<Problem> problems;
  problems.reserve(2 * opt.distinct);
  Prng rng(opt.seed);
  const auto catalog = medcc::cloud::example_catalog();
  for (std::size_t k = 0; k < opt.distinct; ++k) {
    Workflow wf =
        (k % 2 == 0)
            ? medcc::workflow::montage_like(opt.tiles + k % 3, rng)
            : medcc::workflow::cybershake_like(opt.tiles + k % 3, rng);
    Workflow twin = permute_workflow(wf, rng);
    const VmCatalog twin_catalog = permute_catalog(catalog, rng);
    auto base = std::make_shared<const Instance>(
        Instance::from_model(std::move(wf), catalog));
    // A mid-range budget: cheapest-everywhere cost plus ~35% headroom.
    medcc::sched::Schedule cheapest;
    cheapest.type_of.assign(base->module_count(),
                            base->catalog().cheapest_rate_index());
    const double cmin = medcc::sched::total_cost(*base, cheapest);
    const double budget = cmin * 1.35 + 1.0;
    problems.push_back({base, budget});
    problems.push_back(
        {std::make_shared<const Instance>(
             Instance::from_model(std::move(twin), twin_catalog)),
         budget});
  }
  return problems;
}

struct RunReport {
  double wall_seconds = 0.0;
  double throughput = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double hit_rate = 0.0;
  std::uint64_t hits_exact = 0;
  std::uint64_t hits_isomorphic = 0;
  std::uint64_t misses = 0;
};

/// Per-run knobs beyond the shared Options.
struct StreamConfig {
  bool cache_on = true;
  /// Non-empty enables durable persistence rooted here.
  std::string cache_dir;
  /// Include service construction (and so the warm-start load) in the
  /// measured wall time -- the restart modes compare whole restarts.
  bool measure_construction = false;
  /// When set, receives one serialized result per request, in stream
  /// order, for byte-identity comparison across restarts.
  std::vector<std::string>* captured = nullptr;
};

/// Serializes a response's result (schedule, evaluation incl. the CPM
/// detail, iteration count) so two responses compare byte-for-byte.
std::string result_bytes(const SchedulingResponse& response) {
  if (!response.ok()) return {};
  medcc::service::CacheEntry entry;
  entry.result = response.result;
  return medcc::service::encode_cache_record(entry);
}

RunReport run_stream(const Options& opt, const std::vector<Problem>& problems,
                     const StreamConfig& stream) {
  ServiceConfig config;
  config.threads = opt.threads;
  config.queue_capacity = opt.requests + 1;  // open loop: admit everything
  config.cache_capacity = stream.cache_on ? 4096 : 0;
  config.cache_dir = stream.cache_dir;

  const auto construction_started = std::chrono::steady_clock::now();
  SchedulingService service(std::move(config));

  // The stream revisits a small problem set at random: duplicate-heavy.
  Prng stream_rng(opt.seed ^ 0x5DEECE66DULL);
  std::vector<std::future<SchedulingResponse>> futures;
  futures.reserve(opt.requests);
  const auto started = stream.measure_construction
                           ? construction_started
                           : std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < opt.requests; ++i) {
    const auto& problem = stream_rng.choice(problems);
    SchedulingRequest req;
    req.instance = problem.instance;
    req.budget = problem.budget;
    req.solver = opt.solver;
    futures.push_back(service.submit(std::move(req)));
  }
  RunReport report;
  for (auto& f : futures) {
    const auto response = f.get();
    if (response.ok())
      ++report.ok;
    else
      ++report.failed;
    if (stream.captured != nullptr)
      stream.captured->push_back(result_bytes(response));
  }
  const auto finished = std::chrono::steady_clock::now();
  service.drain();

  report.wall_seconds =
      std::chrono::duration<double>(finished - started).count();
  report.throughput = report.wall_seconds > 0.0
                          ? static_cast<double>(opt.requests) /
                                report.wall_seconds
                          : 0.0;
  using medcc::service::Counter;
  const auto snap = service.metrics().snapshot();
  const auto& total = snap[medcc::service::Latency::total];
  if (!total.empty()) {
    report.p50_ms = total.quantile(50.0) * 1e3;
    report.p95_ms = total.quantile(95.0) * 1e3;
    report.p99_ms = total.quantile(99.0) * 1e3;
  }
  report.hit_rate = snap.cache_hit_rate();
  report.hits_exact = snap[Counter::cache_hits_exact];
  report.hits_isomorphic = snap[Counter::cache_hits_isomorphic];
  report.misses = snap[Counter::cache_misses];
  return report;
}

/// JSON baseline (shared schema with bench/net_throughput; docs/perf.md
/// documents the fields).
void write_json(const std::string& path, const Options& opt,
                const RunReport& cold, const RunReport& warm) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << path << "\n";
    std::exit(1);
  }
  const auto run_json = [&](const char* name, const RunReport& r,
                            bool last) {
    out << "    {\"run\": \"" << name << "\", \"wall_seconds\": "
        << r.wall_seconds << ", \"throughput_rps\": " << r.throughput
        << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
        << ", \"p99_ms\": " << r.p99_ms << ", \"hit_rate\": " << r.hit_rate
        << "}" << (last ? "" : ",") << "\n";
  };
  out << "{\n"
      << "  \"schema\": \"medcc-bench-serving/v1\",\n"
      << "  \"bench\": \"service_throughput\",\n"
      << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n"
      << "  \"requests\": " << opt.requests << ",\n"
      << "  \"solver\": \"" << opt.solver << "\",\n"
      << "  \"runs\": [\n";
  run_json("cache_off", cold, false);
  run_json("cache_on", warm, true);
  out << "  ]\n}\n";
}

}  // namespace

/// --warm-start: seed a persistence directory, then compare a restart
/// that warm-starts from it against a restart with no prior state.
int run_warm_start(const Options& opt, const std::vector<Problem>& problems) {
  std::cout << "=== service_throughput: warm-start restart comparison ===\n"
            << "requests=" << opt.requests << " distinct=" << opt.distinct
            << " (x2 permuted twins) tiles=" << opt.tiles
            << " solver=" << opt.solver << " seed=" << opt.seed
            << " cache-dir=" << opt.cache_dir << "\n\n";

  // Seeding run: fills the directory; its responses are the reference
  // the warm restart must reproduce byte-for-byte. Unmeasured.
  std::vector<std::string> seeded_results;
  StreamConfig seeding;
  seeding.cache_dir = opt.cache_dir;
  seeding.captured = &seeded_results;
  const RunReport seeded = run_stream(opt, problems, seeding);
  if (seeded.ok + seeded.failed != opt.requests || seeded.failed != 0) {
    std::cerr << "FAIL: seeding run failed (ok=" << seeded.ok
              << " failed=" << seeded.failed << ")\n";
    return 1;
  }

  // Warm restart: a fresh service loads the snapshot + journal and must
  // answer the whole stream from the cache.
  std::vector<std::string> warm_results;
  StreamConfig warm_config;
  warm_config.cache_dir = opt.cache_dir;
  warm_config.measure_construction = true;
  warm_config.captured = &warm_results;
  const RunReport warm = run_stream(opt, problems, warm_config);

  // Cold restart: same stream, no prior state (cache on but empty).
  StreamConfig cold_config;
  cold_config.measure_construction = true;
  const RunReport cold = run_stream(opt, problems, cold_config);

  medcc::util::Table table({"restart", "wall (s)", "req/s", "p50 (ms)",
                            "p95 (ms)", "hit rate", "misses"});
  table.add_row({"cold (no dir)", medcc::util::fmt(cold.wall_seconds),
                 medcc::util::fmt(cold.throughput),
                 medcc::util::fmt(cold.p50_ms), medcc::util::fmt(cold.p95_ms),
                 medcc::util::fmt(cold.hit_rate),
                 std::to_string(cold.misses)});
  table.add_row({"warm (cache-dir)", medcc::util::fmt(warm.wall_seconds),
                 medcc::util::fmt(warm.throughput),
                 medcc::util::fmt(warm.p50_ms), medcc::util::fmt(warm.p95_ms),
                 medcc::util::fmt(warm.hit_rate),
                 std::to_string(warm.misses)});
  std::cout << table.render() << "\n";

  const double speedup = cold.wall_seconds > 0.0 && warm.wall_seconds > 0.0
                             ? cold.wall_seconds / warm.wall_seconds
                             : 0.0;
  std::cout << "speedup (warm restart vs cold restart): "
            << medcc::util::fmt(speedup) << "x\n";

  if (warm.ok != seeded.ok || warm.failed != seeded.failed) {
    std::cerr << "FAIL: warm restart changed response outcomes\n";
    return 1;
  }
  if (warm.misses != 0) {
    std::cerr << "FAIL: warm restart missed the cache " << warm.misses
              << " time(s); expected every request warmed\n";
    return 1;
  }
  if (warm_results != seeded_results) {
    std::size_t divergent = 0;
    for (std::size_t i = 0; i < warm_results.size(); ++i)
      if (warm_results[i] != seeded_results[i]) ++divergent;
    std::cerr << "FAIL: " << divergent
              << " warmed response(s) not byte-identical to the seeding "
                 "run\n";
    return 1;
  }
  if (speedup < 5.0) {
    std::cerr << "FAIL: warm-restart speedup " << speedup
              << "x below the 5x target\n";
    return 1;
  }
  std::cout << "warm-start OK (responses byte-identical, zero misses)\n";
  return 0;
}

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const auto problems = build_problems(opt);

  if (opt.warm_start) return run_warm_start(opt, problems);

  std::cout << "=== service_throughput: duplicate-heavy stream ===\n"
            << "requests=" << opt.requests << " distinct=" << opt.distinct
            << " (x2 permuted twins) tiles=" << opt.tiles
            << " threads=" << opt.threads << " solver=" << opt.solver
            << " seed=" << opt.seed << "\n\n";

  StreamConfig cache_off;
  cache_off.cache_on = false;
  const RunReport cold = run_stream(opt, problems, cache_off);
  const RunReport warm = run_stream(opt, problems, StreamConfig{});

  medcc::util::Table table({"run", "wall (s)", "req/s", "p50 (ms)",
                            "p95 (ms)", "p99 (ms)", "hit rate"});
  table.add_row({"cache off", medcc::util::fmt(cold.wall_seconds),
                 medcc::util::fmt(cold.throughput),
                 medcc::util::fmt(cold.p50_ms), medcc::util::fmt(cold.p95_ms),
                 medcc::util::fmt(cold.p99_ms), "-"});
  table.add_row({"cache on", medcc::util::fmt(warm.wall_seconds),
                 medcc::util::fmt(warm.throughput),
                 medcc::util::fmt(warm.p50_ms), medcc::util::fmt(warm.p95_ms),
                 medcc::util::fmt(warm.p99_ms),
                 medcc::util::fmt(warm.hit_rate)});
  std::cout << table.render() << "\n";

  if (!opt.json_path.empty()) write_json(opt.json_path, opt, cold, warm);

  const double speedup = cold.wall_seconds > 0.0 && warm.wall_seconds > 0.0
                             ? cold.wall_seconds / warm.wall_seconds
                             : 0.0;
  std::cout << "responses: ok=" << warm.ok << " failed=" << warm.failed
            << "\n"
            << "cache hits: exact=" << warm.hits_exact
            << " isomorphic=" << warm.hits_isomorphic
            << " misses=" << warm.misses << "\n"
            << "speedup (cache on vs off): " << medcc::util::fmt(speedup)
            << "x\n";

  // Both runs must answer every request, and they must agree: the cache
  // may change latency, never outcomes.
  if (cold.ok != warm.ok || cold.failed != warm.failed) {
    std::cerr << "FAIL: cache changed response outcomes (off ok=" << cold.ok
              << " failed=" << cold.failed << ", on ok=" << warm.ok
              << " failed=" << warm.failed << ")\n";
    return 1;
  }
  if (cold.ok + cold.failed != opt.requests) {
    std::cerr << "FAIL: dropped responses\n";
    return 1;
  }
  if (!opt.smoke && speedup < 5.0) {
    std::cerr << "FAIL: speedup " << speedup << "x below the 5x target\n";
    return 1;
  }
  std::cout << (opt.smoke ? "smoke OK\n" : "OK\n");
  return 0;
}
