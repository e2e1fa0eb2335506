#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "dag/cpm_kernel.hpp"
#include "dag/critical_path.hpp"
#include "net/codec.hpp"
#include "persist/store.hpp"
#include "sched/bounds.hpp"
#include "sched/solver_registry.hpp"
#include "service/cache.hpp"
#include "service/fingerprint.hpp"
#include "service/persistence.hpp"
#include "service/service.hpp"
#include "service/wire_cache.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using medcc::sched::Instance;
using medcc::service::CacheOutcome;
using medcc::service::SchedulingResponse;

constexpr std::size_t kProbeInstances = 64;
constexpr std::size_t kProbeSolves = 16;
constexpr std::size_t kProbeAppends = 64;
constexpr int kMakespanReps = 32;
/// Largest Table IV size (index 10, m = 50 plus entry and exit) the
/// solver probes use, so a legacy-CPM probe stays in milliseconds.
constexpr std::size_t kProbeMaxModules = 52;

/// Span recorder; a disabled log records nothing and costs two branches.
class SpanLog {
public:
  SpanLog(bool on, std::vector<Span>& spans) : on_(on), spans_(spans) {}

  int open(const char* name, int parent = -1) {
    if (!on_) return -1;
    spans_.push_back({name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  }

private:
  bool on_;
  std::vector<Span>& spans_;
};

const char* solve_span(const std::string& solver) {
  if (solver == "cg") return "sched.cg.solve";
  if (solver == "gain3") return "sched.gain3.solve";
  if (solver == "gain2") return "sched.gain2.solve";
  if (solver == "loss2") return "sched.loss2.solve";
  return "sched.other.solve";
}

const medcc::sched::SolverFn& solver_fn(const std::string& name) {
  const auto* fn = medcc::sched::SolverRegistry::built_in().find(name);
  if (fn == nullptr) throw std::runtime_error("unknown solver " + name);
  return *fn;
}

/// Serving-path state of one replay: the caches and, for a durable
/// workload, the journal, warm-started from a copy of the seed.
struct PathState {
  medcc::service::WireCache wire;
  medcc::service::ResultCache cache{medcc::service::ResultCache::Config{}};
  std::unique_ptr<medcc::persist::DurableStore> store;
};

std::unique_ptr<medcc::persist::DurableStore> open_store(
    const fs::path& dir, bool fsync, medcc::service::ResultCache* cache) {
  medcc::persist::StoreConfig config;
  config.dir = dir;
  config.snapshot_interval_s = 0.0;
  config.fsync_appends = fsync;
  auto store = std::make_unique<medcc::persist::DurableStore>(
      config, [cache]() {
        std::vector<std::string> payloads;
        if (cache != nullptr)
          for (const auto& entry : cache->export_entries())
            payloads.push_back(medcc::service::encode_cache_record(entry));
        return payloads;
      });
  const auto loaded = store->load();
  if (cache != nullptr)
    for (const auto& payload : loaded.payloads)
      cache->restore(medcc::service::decode_cache_record(payload));
  return store;
}

/// One request through the serving path; returns the MED answered, or
/// NaN when the wire cache answered (its bytes are checked elsewhere).
double serve(PathState& state, SpanLog& log, bool durable,
             const std::string& frame,
             std::map<std::string, std::uint64_t>& iterations) {
  const int root = log.open("request");
  const std::string_view inner =
      std::string_view(frame).substr(medcc::net::kHeaderSize);
  const auto header = medcc::net::parse_frame_header(frame);

  int span = log.open("net.wire_find", root);
  const auto memo = state.wire.find(inner);
  log.close(span);
  if (memo) {
    log.close(root);
    return std::nan("");
  }

  span = log.open("net.decode", root);
  const medcc::service::SchedulingRequest request =
      medcc::net::decode_solve_request(inner);
  log.close(span);

  span = log.open("service.fingerprint", root);
  const medcc::service::FingerprintDetail fp =
      medcc::service::fingerprint(request);
  log.close(span);

  SchedulingResponse response;
  response.status = medcc::service::ResponseStatus::ok;
  response.solver = request.solver;
  span = log.open("service.cache_find", root);
  auto hit = state.cache.find(fp);
  bool answered = false;
  if (hit && hit->exact) {
    response.cache = CacheOutcome::hit_exact;
    response.result = std::move(hit->result);
    answered = true;
  } else if (hit) {
    if (auto remapped = medcc::service::remap_schedule(*hit, fp)) {
      medcc::sched::Result result;
      result.schedule = std::move(*remapped);
      result.eval = medcc::sched::evaluate(*request.instance, result.schedule);
      result.iterations = hit->result.iterations;
      const double slack = 1e-9 * std::max(1.0, std::abs(request.budget));
      if (result.eval.cost <= request.budget + slack) {
        response.cache = CacheOutcome::hit_isomorphic;
        response.result = std::move(result);
        answered = true;
      }
    }
  }
  log.close(span);

  if (!answered) {
    response.cache = CacheOutcome::miss;
    span = log.open(solve_span(request.solver), root);
    response.result =
        solver_fn(request.solver)(*request.instance, request.budget);
    log.close(span);
    iterations[request.solver] += response.result.iterations;
    span = log.open("service.cache_insert", root);
    std::string payload;
    if (durable) {
      auto entry = medcc::service::ResultCache::make_entry(fp, response.result);
      payload = medcc::service::encode_cache_record(entry);
      state.cache.insert(std::move(entry));
    } else {
      state.cache.insert(fp, response.result);
    }
    log.close(span);
    if (durable) {
      span = log.open("persist.append", root);
      state.store->append(payload);
      log.close(span);
    }
  }

  span = log.open("net.encode", root);
  const std::string bytes = medcc::net::encode_solve_response(
      response, header ? header->request_id : 0);
  log.close(span);
  if (bytes.size() <= medcc::net::kHeaderSize)
    throw std::logic_error("empty solve_response");

  span = log.open("service.wire_insert", root);
  response.cache = CacheOutcome::hit_exact;
  state.wire.insert(inner, medcc::net::encode_solve_response(response, 0));
  log.close(span);
  log.close(root);
  return response.result.eval.med;
}

/// Construction time of a SchedulingService warm-starting from `dir`.
double time_warm_start(const fs::path& dir) {
  medcc::service::ServiceConfig config;
  config.threads = 1;
  config.cache_dir = dir.string();
  config.snapshot_interval_s = 0.0;
  const std::int64_t start = now_ns();
  auto service = std::make_unique<medcc::service::SchedulingService>(config);
  const std::int64_t end = now_ns();
  service.reset();
  return static_cast<double>(end - start) / 1e6;
}

/// Distinct instances of the replayed requests, in first-use order.
std::vector<const Instance*> distinct_instances(
    const Workload& w, const std::vector<const Request*>& requests,
    std::size_t cap) {
  std::vector<const Instance*> out;
  std::set<const Instance*> seen;
  for (const Request* r : requests) {
    const Instance* inst = w.templates[r->tmpl].instance.get();
    if (seen.insert(inst).second) out.push_back(inst);
    if (out.size() == cap) break;
  }
  return out;
}

void run_probes(const Workload& w, const std::vector<const Request*>& requests,
                PathState& state, SpanLog& log, const fs::path& scratch,
                ReplayResult& result) {
  const auto instances = distinct_instances(w, requests, kProbeInstances);

  // Instance construction from decoded parts (what decode does inside).
  for (const Instance* inst : instances) {
    auto wf = inst->workflow();
    auto catalog = inst->catalog();
    std::vector<std::vector<double>> times;
    for (const auto id : wf.computing_modules()) {
      std::vector<double> row(inst->type_count());
      for (std::size_t j = 0; j < row.size(); ++j) row[j] = inst->time(id, j);
      times.push_back(std::move(row));
    }
    const int span = log.open("probe.instance_build");
    const Instance built = Instance::from_matrix(
        std::move(wf), std::move(catalog), times, inst->billing(),
        inst->network());
    log.close(span);
    if (built.module_count() != inst->module_count())
      throw std::logic_error("instance build probe mismatch");
  }

  // Both CPM engines on the fastest schedule's durations.
  medcc::dag::CpmWorkspace ws;
  volatile double sink = 0.0;
  for (const Instance* inst : instances) {
    const auto weights = medcc::sched::durations(
        *inst, medcc::sched::fastest_schedule(*inst));
    sink = medcc::dag::makespan_into(inst->flat_dag(), weights, ws);
    std::int64_t start = now_ns();
    for (int i = 0; i < kMakespanReps; ++i)
      sink = medcc::dag::makespan_into(inst->flat_dag(), weights, ws);
    result.kernel_makespan_ns.push_back(
        static_cast<double>(now_ns() - start) / kMakespanReps);
    start = now_ns();
    for (int i = 0; i < kMakespanReps; ++i)
      sink = medcc::dag::makespan(inst->workflow().graph(), weights,
                                  inst->edge_times());
    result.legacy_makespan_ns.push_back(
        static_cast<double>(now_ns() - start) / kMakespanReps);
  }
  (void)sink;

  // Served solvers the request path never reached, on this workload's
  // own (small) problems.
  std::set<std::string> solved;
  for (const Request* r : requests)
    if (r->kind == Kind::miss) solved.insert(w.templates[r->tmpl].solver);
  for (const std::string solver : {"cg", "gain3", "gain2", "loss2"}) {
    if (solved.count(solver) > 0) continue;
    std::size_t done = 0;
    for (const Request* r : requests) {
      const Instance& inst = *w.templates[r->tmpl].instance;
      if (inst.module_count() > kProbeMaxModules) continue;
      const int span = log.open(solve_span(solver));
      const auto solved_result = solver_fn(solver)(inst, r->budget);
      log.close(span);
      result.iterations[solver] += solved_result.iterations;
      if (++done == kProbeSolves) break;
    }
  }

  // Persistence on a workload that runs without it: fsynced appends of
  // this replay's own cache records, then a warm start from them.
  if (!state.store) {
    const auto entries = state.cache.export_entries();
    const fs::path dir = scratch / "probe_store";
    fs::remove_all(dir);
    {
      auto store = open_store(dir, /*fsync=*/true, nullptr);
      std::size_t appended = 0;
      for (const auto& entry : entries) {
        const std::string payload = medcc::service::encode_cache_record(entry);
        const int span = log.open("persist.append");
        store->append(payload);
        log.close(span);
        if (++appended == kProbeAppends) break;
      }
    }
    fs::remove_all(dir);
    {
      auto store = open_store(dir, /*fsync=*/false, nullptr);
      for (const auto& entry : entries)
        store->append(medcc::service::encode_cache_record(entry));
      store->flush();
    }
    result.warm_start_ms = time_warm_start(dir);
    fs::remove_all(dir);
  }
}

}  // namespace

ReplayResult replay(const Workload& w, const ReplayOptions& options) {
  ReplayResult result;
  const fs::path scratch = options.scratch_dir;
  fs::create_directories(scratch);
  const bool durable = w.durable;

  std::vector<const Request*> requests;
  for (const auto& pass : w.warmup)
    for (const Request& r : pass) requests.push_back(&r);
  const std::size_t first_measured = requests.size();
  const std::size_t prefix = w.cyclic
                                 ? options.measured_prefix
                                 : std::min(options.measured_prefix,
                                            w.measured.size());
  for (std::size_t i = 0; i < prefix; ++i)
    requests.push_back(&w.measured[i % w.measured.size()]);

  // Frames are built before the clock starts: the server receives them
  // ready-made too.
  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    frames.push_back(frame_of(w, *requests[i], i + 1));

  PathState state;
  const fs::path store_dir = scratch / "replay_store";
  if (durable) {
    if (options.traced) {
      fs::remove_all(scratch / "warm_start");
      fs::copy(options.seed_dir, scratch / "warm_start",
               fs::copy_options::recursive);
      result.warm_start_ms = time_warm_start(scratch / "warm_start");
      fs::remove_all(scratch / "warm_start");
    }
    fs::remove_all(store_dir);
    fs::copy(options.seed_dir, store_dir, fs::copy_options::recursive);
    state.store = open_store(store_dir, /*fsync=*/true, &state.cache);
  }

  SpanLog log(options.traced, result.spans);
  if (options.traced) result.spans.reserve(requests.size() * 10 + 4096);
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i == first_measured) result.first_measured_span = result.spans.size();
    const double med = serve(state, log, durable, frames[i], result.iterations);
    if (i >= first_measured) result.measured_med.push_back(med);
  }
  result.path_seconds = static_cast<double>(now_ns() - start) / 1e9;
  if (requests.size() == first_measured)
    result.first_measured_span = result.spans.size();
  result.path_span_end = result.spans.size();
  result.measured_requests = requests.size() - first_measured;

  if (options.traced) run_probes(w, requests, state, log, scratch, result);
  state.store.reset();
  fs::remove_all(store_dir);
  return result;
}

}  // namespace perfbench
