#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "expr/instance_gen.hpp"
#include "net/codec.hpp"
#include "sched/bounds.hpp"
#include "service/fingerprint.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

using medcc::cloud::VmCatalog;
using medcc::sched::Instance;
using medcc::util::Prng;
using medcc::workflow::Workflow;

constexpr std::size_t kLevels = 20;  // budget levels per instance (Figs. 9-11)
constexpr std::size_t kHitProblems = 512;
constexpr std::size_t kHotBases = 256;
constexpr std::size_t kTwinsPerBase = 8;
constexpr std::size_t kSeedRecords = 3000;
/// Leading misses whose distinct problems enter med_ratio.
constexpr std::size_t kMissSweepRatioPrefix = 4000;
constexpr std::size_t kMixedRatioMisses = 2000;

void put_le(std::string& out, std::size_t at, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    out[at + static_cast<std::size_t>(b)] =
        static_cast<char>((v >> (8 * b)) & 0xFFu);
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Encodes (instance, solver, budget); `budget` < 0 picks the paper's
/// top level (Cmax) as a placeholder the requests patch over.
Template make_template(std::shared_ptr<const Instance> instance,
                       std::string solver, double budget) {
  Template t;
  t.levels = medcc::sched::budget_levels(
      medcc::sched::cost_bounds(*instance), kLevels);
  t.budget = budget < 0.0 ? t.levels.back() : budget;
  medcc::service::SchedulingRequest request;
  request.instance = instance;
  request.budget = t.budget;
  request.solver = solver;
  t.frame = medcc::net::encode_solve_request(request, 0);
  // The budget is the first field of the solve_request body
  // (docs/net.md); append_frame patches it there.
  std::string probe(8, '\0');
  put_le(probe, 0, bits_of(t.budget));
  if (t.frame.compare(medcc::net::kHeaderSize, 8, probe) != 0)
    throw std::logic_error("solve_request layout: budget not at body offset 0");
  t.instance = std::move(instance);
  t.solver = std::move(solver);
  return t;
}

double random_level(const std::vector<double>& levels, Prng& rng) {
  return levels[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(levels.size()) - 1))];
}

std::shared_ptr<const Instance> random_instance(std::size_t size_index,
                                                Prng& rng) {
  return std::make_shared<const Instance>(medcc::expr::make_instance(
      medcc::expr::table4_sizes().at(size_index), rng));
}

/// Same problem, different index layout: modules, edges and VM types
/// inserted in a shuffled order.
std::shared_ptr<const Instance> permuted_twin(const Instance& base, Prng& rng) {
  const Workflow& wf = base.workflow();
  std::vector<std::size_t> order(wf.module_count());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<std::size_t> new_id(wf.module_count());
  Workflow out;
  for (const std::size_t old_id : order) {
    const auto& mod = wf.module(old_id);
    new_id[old_id] = mod.is_fixed()
                         ? out.add_fixed_module(mod.name, *mod.fixed_time)
                         : out.add_module(mod.name, mod.workload);
  }
  std::vector<std::size_t> edges(wf.graph().edge_count());
  for (std::size_t e = 0; e < edges.size(); ++e) edges[e] = e;
  rng.shuffle(edges);
  for (const std::size_t e : edges) {
    const auto& edge = wf.graph().edge(e);
    out.add_dependency(new_id[edge.src], new_id[edge.dst], wf.data_size(e));
  }
  auto types = base.catalog().types();
  rng.shuffle(types);
  return std::make_shared<const Instance>(Instance::from_model(
      std::move(out), VmCatalog(std::move(types)), base.billing(),
      base.network()));
}

/// A problem whose budget levels are pairwise distinct (Cmin < Cmax),
/// so each of its (level, solver) requests is a different problem.
std::shared_ptr<const Instance> sweepable_instance(std::size_t size_index,
                                                   Prng& rng) {
  for (;;) {
    auto inst = random_instance(size_index, rng);
    const auto bounds = medcc::sched::cost_bounds(*inst);
    const auto levels = medcc::sched::budget_levels(bounds, kLevels);
    if (std::adjacent_find(levels.begin(), levels.end(),
                           [](double a, double b) { return !(a < b); }) ==
        levels.end())
      return inst;
  }
}

/// A problem whose isomorphic twins can always be re-mapped: every
/// module label and VM-type hash is distinct (otherwise the cache falls
/// back to a fresh solve and the twin would count as a miss).
std::shared_ptr<const Instance> remappable_instance(std::size_t size_index,
                                                    const std::string& solver,
                                                    Prng& rng) {
  for (;;) {
    auto inst = random_instance(size_index, rng);
    const auto fp =
        medcc::service::fingerprint_instance(*inst, 1.0, solver, "");
    if (fp.modules_distinct && fp.types_distinct) return inst;
  }
}

Request request_of(const Workload& w, std::uint32_t tmpl, Kind kind,
                   double budget = -1.0, std::uint32_t base = ~0u) {
  Request r;
  r.tmpl = tmpl;
  r.budget = budget < 0.0 ? w.templates[tmpl].budget : budget;
  r.base = base == ~0u ? tmpl : base;
  r.kind = kind;
  return r;
}

/// Never-seen misses over the first `sizes` Table IV sizes, drawn as
/// they are asked for: the k-th miss uses size k % sizes, then walks
/// (solver, budget level) so that each instance serves 2 * kLevels
/// distinct (budget, solver) problems. Instances come from the stream's
/// own generator in a fixed order, one per 2 * kLevels misses and a full
/// round of sizes ahead of need, so drawing them is spread evenly over a
/// run and the stream never runs out.
class MissStream {
public:
  MissStream(std::size_t sizes, std::string solver_a, std::string solver_b,
             Prng rng)
      : sizes_(sizes), solvers_{std::move(solver_a), std::move(solver_b)},
        rng_(std::move(rng)) {}

  Request next(Workload& w) {
    constexpr std::size_t per_instance = 2 * kLevels;
    const std::size_t k = count_++;
    const std::size_t round = k / sizes_;
    const std::size_t instance = round / per_instance * sizes_ + k % sizes_;
    while (first_.size() <= std::max(instance, k / per_instance + sizes_))
      draw(w);
    const auto tmpl = first_[instance] + static_cast<std::uint32_t>(round % 2);
    return request_of(w, tmpl, Kind::miss,
                      w.templates[tmpl].levels[(round / 2) % kLevels]);
  }

private:
  /// Appends instance first_.size() as two templates, one per solver.
  void draw(Workload& w) {
    auto inst = sweepable_instance(first_.size() % sizes_, rng_);
    first_.push_back(static_cast<std::uint32_t>(w.templates.size()));
    w.templates.push_back(make_template(inst, solvers_[0], -1.0));
    w.templates.push_back(make_template(std::move(inst), solvers_[1], -1.0));
  }

  std::size_t sizes_;
  std::array<std::string, 2> solvers_;
  Prng rng_;
  std::size_t count_ = 0;
  /// Template index of each drawn instance's first-solver template.
  std::vector<std::uint32_t> first_;
};

std::vector<Request> take(MissStream& stream, Workload& w, std::size_t count) {
  std::vector<Request> out;
  for (std::size_t k = 0; k < count; ++k) out.push_back(stream.next(w));
  return out;
}

/// Two passes over `bases`: the first answers each problem (solve or
/// cache hit) and memoizes it, the second comes from the wire fast path;
/// the second pass's answers are the reference bytes and MEDs, and
/// enter med_ratio.
void two_pass_warmup(Workload& w, std::uint32_t bases) {
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) w.reference_pass = w.warmup.size();
    std::vector<Request> requests;
    for (std::uint32_t k = 0; k < bases; ++k) {
      Request r = request_of(w, k, pass == 0 ? Kind::miss : Kind::exact);
      r.in_ratio = pass == 1;
      requests.push_back(r);
    }
    w.warmup.push_back(std::move(requests));
  }
}

Workload hit_exact(std::uint64_t seed) {
  Workload w;
  w.name = "hit_exact";
  w.connections = 4;
  w.window = 32;
  w.cyclic = true;
  Prng rng(seed ^ 0x6869745f65786163ULL);
  for (std::size_t k = 0; k < kHitProblems; ++k) {
    auto inst = random_instance(k % 10, rng);
    const double budget = random_level(
        medcc::sched::budget_levels(medcc::sched::cost_bounds(*inst), kLevels),
        rng);
    w.templates.push_back(make_template(std::move(inst), "cg", budget));
  }
  two_pass_warmup(w, kHitProblems);
  for (std::uint32_t k = 0; k < kHitProblems; ++k)
    w.measured.push_back(request_of(w, k, Kind::exact));
  return w;
}

Workload miss_sweep(std::uint64_t seed) {
  Workload w;
  w.name = "miss_sweep";
  w.connections = 2;
  w.window = 8;
  const Prng rng(seed ^ 0x6d6973735f737765ULL);
  // Warm-up misses come from their own instances, so the measured
  // stream stays never-seen.
  MissStream warm(20, "cg", "gain3", rng.fork(0));
  w.warmup.push_back(take(warm, w, 80));
  w.reference_pass = w.warmup.size();
  w.ratio_requests = kMissSweepRatioPrefix;
  w.next_measured = [stream = MissStream(20, "cg", "gain3", rng.fork(1))](
                        Workload& wl) mutable {
    Request r = stream.next(wl);
    r.in_ratio = wl.measured.size() < kMissSweepRatioPrefix;
    return r;
  };
  return w;
}

Workload mixed_durable(std::uint64_t seed) {
  Workload w;
  w.name = "mixed_durable";
  w.connections = 4;
  w.window = 8;
  w.durable = true;
  Prng rng(seed ^ 0x6d697865645f6475ULL);
  // Hot bases: Table IV sizes 1-10 under the legacy-CPM baselines.
  for (std::size_t k = 0; k < kHotBases; ++k) {
    const char* solver = (k / 10) % 2 == 0 ? "gain2" : "loss2";
    auto inst = remappable_instance(k % 10, solver, rng);
    const double budget = random_level(
        medcc::sched::budget_levels(medcc::sched::cost_bounds(*inst), kLevels),
        rng);
    w.templates.push_back(make_template(std::move(inst), solver, budget));
  }
  // The seed directory holds every hot base plus cg filler over the same
  // instances at the paper's budget levels (distinct problems: the
  // solver and budget enter the fingerprint), so a set-up is a warm
  // restart from kSeedRecords records.
  for (std::size_t k = 0; k < kSeedRecords; ++k) {
    const Template& base = w.templates[k % kHotBases];
    medcc::service::SchedulingRequest r;
    r.instance = base.instance;
    if (k < kHotBases) {
      r.budget = base.budget;
      r.solver = base.solver;
    } else {
      r.budget = base.levels[(k / kHotBases) % kLevels];
      r.solver = "cg";
    }
    w.seed_problems.push_back(std::move(r));
  }
  // Twins: kTwinsPerBase permutations of every base, used base-major so
  // a twin recurs only after kHotBases * kTwinsPerBase twin requests --
  // far beyond the wire cache's reach, so each is an isomorphic hit.
  std::vector<std::uint32_t> twins;
  for (std::size_t v = 0; v < kTwinsPerBase; ++v) {
    for (std::uint32_t k = 0; k < kHotBases; ++k) {
      const Template& base = w.templates[k];
      twins.push_back(static_cast<std::uint32_t>(w.templates.size()));
      w.templates.push_back(make_template(permuted_twin(*base.instance, rng),
                                          base.solver, base.budget));
    }
  }
  two_pass_warmup(w, kHotBases);
  MissStream warm(10, "gain2", "loss2", rng.fork(0));
  w.warmup.push_back(take(warm, w, 40));

  // 20-slot pattern of 9 exact repeats (45%), 6 twins (30%) and 5
  // misses (25%), each class spread evenly. It is the same for every
  // seed, so only the problems depend on the seed, not the interleaving.
  static constexpr std::string_view kPattern = "ETMETEMETEMTEMETEMTE";
  w.ratio_requests = kMixedRatioMisses;
  w.next_measured = [twins = std::move(twins),
                     misses = MissStream(10, "gain2", "loss2", rng.fork(1)),
                     exact = std::size_t{0}, twin = std::size_t{0},
                     miss = std::size_t{0}](Workload& wl) mutable {
    switch (kPattern[wl.measured.size() % kPattern.size()]) {
      case 'E':
        return request_of(
            wl, static_cast<std::uint32_t>(exact++ % kHotBases), Kind::exact);
      case 'T': {
        const std::size_t t = twin++ % twins.size();
        return request_of(wl, twins[t], Kind::twin, -1.0,
                          static_cast<std::uint32_t>(t % kHotBases));
      }
      default:
        break;
    }
    Request r = misses.next(wl);
    r.in_ratio = miss++ < kMixedRatioMisses;
    return r;
  };
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "hit_exact") return hit_exact(seed);
  if (name == "miss_sweep") return miss_sweep(seed);
  if (name == "mixed_durable") return mixed_durable(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void append_frame(std::string& out, const Template& t, double budget,
                  std::uint64_t id) {
  const std::size_t at = out.size();
  out.append(t.frame);
  put_le(out, at + 8, id);
  put_le(out, at + medcc::net::kHeaderSize, bits_of(budget));
}

std::string frame_of(const Workload& w, const Request& r, std::uint64_t id) {
  std::string out;
  append_frame(out, w.templates[r.tmpl], r.budget, id);
  return out;
}

const Request& Workload::measured_at(std::size_t i) {
  if (cyclic) return measured[i % measured.size()];
  while (measured.size() <= i) measured.push_back(next_measured(*this));
  return measured[i];
}

}  // namespace perfbench
