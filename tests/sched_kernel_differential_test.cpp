// Differential tests pinning the kernel-backed schedulers to the legacy
// dag::compute_cpm reference: evaluate()'s CpmResult must be bit-identical
// to a direct compute_cpm call, Critical-Greedy's per-move makespans (read
// off its kernel workspace) must replay exactly, the pooled genetic
// evaluation must match the sequential run gene for gene, and the
// kernel-scored annealer must walk the same accept/reject trajectory as a
// from-scratch reference implementation.
//
// A golden file (tests/golden/solver_outputs.txt) additionally pins every
// makespan-evaluating solver's output -- schedule, iteration count, and
// MED/cost as hex bit patterns -- so a change of CPM engine underneath a
// solver must leave its results bit-identical. To regenerate after an
// INTENTIONAL behaviour change:
//   MEDCC_UPDATE_GOLDEN=1 ./sched_kernel_differential_test
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "dag/critical_path.hpp"
#include "expr/instance_gen.hpp"
#include "expr/robustness.hpp"
#include "multicloud/multicloud.hpp"
#include "sched/annealing.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/deadline.hpp"
#include "sched/exhaustive.hpp"
#include "sched/gain_loss.hpp"
#include "sched/genetic.hpp"
#include "sched/pcp.hpp"
#include "sched/reuse_aware.hpp"
#include "sched/schedule.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "workflow/patterns.hpp"
#include "workflow/random_workflow.hpp"

namespace {

using medcc::dag::NodeId;
using medcc::sched::durations;
using medcc::sched::Instance;
using medcc::sched::Schedule;
using medcc::sched::total_cost;

Instance example_instance() {
  return Instance::from_model(medcc::workflow::example6(),
                              medcc::cloud::example_catalog());
}

Instance random_instance(std::uint64_t seed) {
  medcc::util::Prng rng(seed);
  return medcc::expr::make_instance({10, 20, 4}, rng);
}

double mid_budget(const Instance& inst) {
  const auto bounds = medcc::sched::cost_bounds(inst);
  return 0.5 * (bounds.cmin + bounds.cmax);
}

/// The legacy evaluation path: full compute_cpm on the mapped workflow.
medcc::dag::CpmResult legacy_cpm(const Instance& inst,
                                 const Schedule& schedule) {
  return medcc::dag::compute_cpm(inst.workflow().graph(),
                                 durations(inst, schedule),
                                 inst.edge_times());
}

class EvaluateDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvaluateDifferentialTest, EvaluateMatchesLegacyComputeCpmBitwise) {
  const auto inst = random_instance(GetParam());
  medcc::util::Prng rng(GetParam() * 31 + 7);

  auto schedule = medcc::sched::least_cost_schedule(inst);
  for (int round = 0; round < 8; ++round) {
    for (NodeId i : inst.workflow().computing_modules())
      schedule.type_of[i] = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(inst.type_count()) - 1));

    const auto eval = medcc::sched::evaluate(inst, schedule);
    const auto ref = legacy_cpm(inst, schedule);
    EXPECT_EQ(eval.cpm.est, ref.est);
    EXPECT_EQ(eval.cpm.eft, ref.eft);
    EXPECT_EQ(eval.cpm.lst, ref.lst);
    EXPECT_EQ(eval.cpm.lft, ref.lft);
    EXPECT_EQ(eval.cpm.buffer, ref.buffer);
    EXPECT_EQ(eval.cpm.critical, ref.critical);
    EXPECT_EQ(eval.cpm.critical_path, ref.critical_path);
    EXPECT_EQ(eval.cpm.makespan, ref.makespan);
    EXPECT_EQ(eval.med, ref.makespan);
  }
}

TEST_P(EvaluateDifferentialTest, CgTraceReplaysAgainstLegacyCpm) {
  const auto inst = random_instance(GetParam());
  const double budget = mid_budget(inst);
  const auto trace = medcc::sched::critical_greedy_trace(inst, budget);

  // Replay the move list from the least-cost start. After each applied
  // move, the trace's med_after (read straight off the kernel
  // workspace) must equal a full legacy recompute bit for bit, and the
  // chosen module must have been critical at selection time.
  auto schedule = medcc::sched::least_cost_schedule(inst);
  for (std::size_t k = 0; k < trace.moves.size(); ++k) {
    const auto& move = trace.moves[k];
    const auto before = legacy_cpm(inst, schedule);
    EXPECT_TRUE(before.critical[move.module]) << "move " << k;
    EXPECT_EQ(schedule.type_of[move.module], move.from_type) << "move " << k;
    schedule.type_of[move.module] = move.to_type;
    EXPECT_EQ(legacy_cpm(inst, schedule).makespan, move.med_after)
        << "move " << k;
    EXPECT_NEAR(total_cost(inst, schedule), move.cost_after,
                1e-9 * std::max(1.0, budget))
        << "move " << k;
  }
  EXPECT_EQ(schedule, trace.result.schedule);
}

TEST_P(EvaluateDifferentialTest, AnnealingMatchesFullRecomputeReference) {
  const auto inst = random_instance(GetParam());
  const double budget = mid_budget(inst);
  medcc::sched::AnnealingOptions opts;
  opts.iterations = 400;
  opts.seed = GetParam() + 11;

  // Reference annealer: the same search loop, every neighbour scored by a
  // full legacy dag::makespan. The production annealer scores neighbours
  // through the FlatDag kernel; since that is bitwise-exact, both must
  // draw the same rng stream and end on the same schedule.
  const auto computing = inst.workflow().computing_modules();
  const auto repair = [&](Schedule& schedule) {
    double cost = total_cost(inst, schedule);
    while (cost > budget + 1e-9) {
      NodeId best_module = 0;
      std::size_t best_type = 0;
      double best_ratio = std::numeric_limits<double>::infinity();
      bool found = false;
      for (NodeId i : computing) {
        const std::size_t cur = schedule.type_of[i];
        for (std::size_t j = 0; j < inst.type_count(); ++j) {
          if (j == cur) continue;
          const double saving = inst.cost(i, cur) - inst.cost(i, j);
          if (saving <= 0.0) continue;
          const double loss = inst.time(i, j) - inst.time(i, cur);
          const double ratio =
              loss <= 0.0 ? -std::numeric_limits<double>::infinity()
                          : loss / saving;
          if (!found || ratio < best_ratio) {
            found = true;
            best_ratio = ratio;
            best_module = i;
            best_type = j;
          }
        }
      }
      ASSERT_TRUE(found);
      cost += inst.cost(best_module, best_type) -
              inst.cost(best_module, schedule.type_of[best_module]);
      schedule.type_of[best_module] = best_type;
    }
  };
  const auto med_of = [&](const Schedule& s) {
    return medcc::dag::makespan(inst.workflow().graph(), durations(inst, s),
                                inst.edge_times());
  };

  medcc::util::Prng rng(opts.seed);
  Schedule current = medcc::sched::critical_greedy(inst, budget).schedule;
  double current_med = med_of(current);
  Schedule best = current;
  double best_med = current_med;
  double temperature =
      std::max(1e-9, opts.initial_temperature_fraction * current_med);
  for (std::size_t iter = 0; iter < opts.iterations; ++iter) {
    Schedule neighbour = current;
    const NodeId i = rng.choice(computing);
    neighbour.type_of[i] = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(inst.type_count()) - 1));
    repair(neighbour);
    const double med = med_of(neighbour);
    const double delta = med - current_med;
    if (delta <= 0.0 || rng.bernoulli(std::exp(-delta / temperature))) {
      current = std::move(neighbour);
      current_med = med;
      if (current_med < best_med) {
        best = current;
        best_med = current_med;
      }
    }
    temperature *= opts.cooling;
  }

  const auto got = medcc::sched::annealing(inst, budget, opts);
  EXPECT_EQ(got.schedule, best);
  EXPECT_EQ(got.eval.med, medcc::sched::evaluate(inst, best).med);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluateDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(KernelDifferential, CgOptionVariantsStayOnLegacyPath) {
  // The ablation variants exercise the same kernel workspace with a
  // different candidate scan; their traces must replay identically too.
  const auto inst = example_instance();
  for (const bool all_modules : {false, true}) {
    for (const bool ratio : {false, true}) {
      medcc::sched::CriticalGreedyOptions options;
      options.all_modules = all_modules;
      options.ratio_criterion = ratio;
      const auto trace =
          medcc::sched::critical_greedy_trace(inst, 57.0, options);
      auto schedule = medcc::sched::least_cost_schedule(inst);
      for (const auto& move : trace.moves) {
        schedule.type_of[move.module] = move.to_type;
        EXPECT_EQ(legacy_cpm(inst, schedule).makespan, move.med_after);
      }
      EXPECT_EQ(schedule, trace.result.schedule);
    }
  }
}

TEST(KernelDifferential, GeneticPoolMatchesSequentialExactly) {
  // Chromosomes are bred sequentially and scored in an rng-free batch, so
  // the pooled run must reproduce the sequential trajectory gene for gene.
  medcc::util::ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = random_instance(seed * 13);
    const double budget = mid_budget(inst);
    medcc::sched::GeneticOptions opts;
    opts.population = 12;
    opts.generations = 8;
    opts.seed = seed;

    const auto sequential = medcc::sched::genetic(inst, budget, opts);
    opts.pool = &pool;
    const auto pooled = medcc::sched::genetic(inst, budget, opts);
    EXPECT_EQ(pooled.schedule, sequential.schedule) << "seed " << seed;
    EXPECT_EQ(pooled.eval.med, sequential.eval.med) << "seed " << seed;
    EXPECT_EQ(pooled.eval.cost, sequential.eval.cost) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Golden solver outputs.

std::string hex(double value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0')
     << std::bit_cast<std::uint64_t>(value);
  return os.str();
}

template <typename Range>
std::string hex_list(const Range& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ',';
    out += hex(v);
  }
  return out;
}

std::string types_of(const Schedule& schedule) {
  std::string out;
  for (const std::size_t t : schedule.type_of) {
    if (!out.empty()) out += ',';
    out += std::to_string(t);
  }
  return out;
}

/// Appends one solver run. Infeasible / node-budget outcomes are part of
/// the pinned behaviour, so they are recorded rather than skipped.
void record(std::ostringstream& out, const std::string& label,
            const std::function<std::string()>& run) {
  out << label << ": ";
  try {
    out << run();
  } catch (const medcc::Infeasible&) {
    out << "infeasible";
  } catch (const medcc::Error&) {
    out << "error";
  }
  out << '\n';
}

std::string line(const Schedule& schedule, std::size_t iterations,
                 const medcc::sched::Evaluation& eval) {
  return "it=" + std::to_string(iterations) + " med=" + hex(eval.med) +
         " cost=" + hex(eval.cost) + " s=" + types_of(schedule);
}

struct NamedInstance {
  std::string name;
  Instance inst;
};

std::vector<NamedInstance> golden_instances() {
  std::vector<NamedInstance> out;
  out.push_back({"example6", example_instance()});
  const auto& sizes = medcc::expr::table4_sizes();
  for (std::size_t k = 0; k < 6; ++k) {
    for (const std::uint64_t seed : {1u, 2u}) {
      medcc::util::Prng rng(1000 * seed + k);
      out.push_back({"t4s" + std::to_string(k + 1) + "/" +
                         std::to_string(seed),
                     medcc::expr::make_instance(sizes[k], rng)});
    }
  }
  {
    medcc::util::Prng rng(77);
    auto wf = medcc::workflow::montage_like(3, rng);
    auto catalog = medcc::cloud::random_linear_catalog(4, 12, rng, 1.0, 1.0,
                                                       0.25);
    out.push_back({"montage3", Instance::from_model(std::move(wf),
                                                    std::move(catalog))});
  }
  {
    // Non-zero transfer times exercise the edge-weighted recurrences.
    medcc::util::Prng rng(91);
    medcc::workflow::RandomWorkflowSpec spec;
    spec.modules = 8;
    spec.edges = 14;
    spec.data_size_min = 1.0;
    spec.data_size_max = 20.0;
    auto wf = medcc::workflow::random_workflow(spec, rng);
    auto catalog = medcc::cloud::random_linear_catalog(3, 12, rng, 1.0, 1.0,
                                                       0.25);
    medcc::cloud::NetworkModel network;
    network.bandwidth = 5.0;
    network.link_delay = 0.5;
    network.transfer_cost_rate = 0.1;
    out.push_back({"net8", Instance::from_model(
                               std::move(wf), std::move(catalog),
                               medcc::cloud::BillingPolicy::per_unit_time(),
                               network)});
  }
  return out;
}

void record_instance(std::ostringstream& out, const NamedInstance& named,
                     medcc::util::ThreadPool& pool) {
  using medcc::sched::GainLossVariant;
  using medcc::sched::GainMoveSet;
  const Instance& inst = named.inst;
  const std::string& name = named.name;
  // Exact searches only where the branch-and-bound stays cheap.
  const bool small = inst.workflow().computing_modules().size() <= 8;

  const auto budgets =
      medcc::sched::budget_levels(medcc::sched::cost_bounds(inst), 4);
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const double budget = budgets[b];
    const std::string at = name + " B" + std::to_string(b + 1) + " ";
    for (const auto variant :
         {GainLossVariant::V1, GainLossVariant::V2, GainLossVariant::V3}) {
      const auto v = std::to_string(static_cast<int>(variant));
      record(out, at + "gain" + v, [&] {
        const auto r = medcc::sched::gain(inst, budget, variant);
        return line(r.schedule, r.iterations, r.eval);
      });
      record(out, at + "gain" + v + "_all", [&] {
        const auto r =
            medcc::sched::gain(inst, budget, variant, GainMoveSet::AllPairs);
        return line(r.schedule, r.iterations, r.eval);
      });
      record(out, at + "loss" + v, [&] {
        const auto r = medcc::sched::loss(inst, budget, variant);
        return line(r.schedule, r.iterations, r.eval);
      });
    }
    record(out, at + "cg", [&] {
      const auto trace = medcc::sched::critical_greedy_trace(inst, budget);
      std::string meds;
      for (const auto& move : trace.moves) meds += ' ' + hex(move.med_after);
      return line(trace.result.schedule, trace.result.iterations,
                  trace.result.eval) +
             " moves=" + meds;
    });
    record(out, at + "reuse_aware", [&] {
      const auto r = medcc::sched::critical_greedy_reuse_aware(inst, budget);
      return line(r.schedule, r.iterations, r.eval) +
             " billed=" + hex(r.billed_cost);
    });
    record(out, at + "annealing", [&] {
      medcc::sched::AnnealingOptions opts;
      opts.iterations = 300;
      opts.seed = 5 + b;
      const auto r = medcc::sched::annealing(inst, budget, opts);
      return line(r.schedule, r.iterations, r.eval);
    });
    if (small) {
      record(out, at + "exhaustive", [&] {
        const auto r = medcc::sched::exhaustive_optimal(inst, budget);
        return line(r.schedule, 0, r.eval) +
               " nodes=" + std::to_string(r.nodes_visited);
      });
    }
  }

  const double fastest_med =
      medcc::sched::evaluate(inst, medcc::sched::fastest_schedule(inst)).med;
  const double least_med =
      medcc::sched::evaluate(inst, medcc::sched::least_cost_schedule(inst))
          .med;
  for (const double f : {0.0, 0.25, 0.5, 1.0}) {
    const double deadline = fastest_med + f * (least_med - fastest_med);
    const std::string at = name + " D" + hex(deadline) + " ";
    record(out, at + "deadline_loss", [&] {
      const auto r = medcc::sched::deadline_loss(inst, deadline);
      return line(r.schedule, r.iterations, r.eval);
    });
    record(out, at + "pcp", [&] {
      const auto r = medcc::sched::pcp_deadline(inst, deadline);
      return line(r.schedule, r.paths, r.eval);
    });
    if (small) {
      record(out, at + "deadline_exact", [&] {
        const auto r =
            medcc::sched::min_cost_under_deadline_exact(inst, deadline);
        return line(r.schedule, r.iterations, r.eval);
      });
    }
  }

  record(out, name + " robustness", [&] {
    const auto schedule =
        medcc::sched::critical_greedy(inst, budgets[1]).schedule;
    medcc::expr::RobustnessOptions opts;
    opts.trials = 40;
    opts.noise = 0.2;
    opts.seed = 3;
    const auto report =
        medcc::expr::assess_robustness(inst, schedule, pool, opts);
    return "nominal=" + hex(report.nominal_med) +
           " samples=" + hex_list(report.samples);
  });
}

void record_multicloud(std::ostringstream& out) {
  using medcc::multicloud::CloudSite;
  using medcc::multicloud::InterCloudLink;
  using medcc::multicloud::McInstance;
  medcc::util::Prng rng(5);
  medcc::workflow::RandomWorkflowSpec spec;
  spec.modules = 9;
  spec.edges = 16;
  spec.data_size_min = 1.0;
  spec.data_size_max = 30.0;
  std::vector<std::pair<std::string, medcc::workflow::Workflow>> workflows;
  workflows.emplace_back("example6", medcc::workflow::example6());
  workflows.emplace_back("random9", medcc::workflow::random_workflow(spec, rng));
  for (auto& [name, wf] : workflows) {
    InterCloudLink link;
    link.bandwidth = 4.0;
    link.delay = 0.25;
    link.cost_per_unit = 0.05;
    const McInstance inst(
        wf, medcc::multicloud::Federation(
                {CloudSite{"A", medcc::cloud::example_catalog()},
                 CloudSite{"B", medcc::cloud::VmCatalog(
                                    {{"B1", 30.0, 9.0}, {"B2", 60.0, 20.0}})}},
                link));
    const auto least = medcc::multicloud::single_site_least_cost(inst);
    const double cmin = medcc::multicloud::evaluate(inst, least).cost;
    for (const double extra : {0.0, 5.0, 20.0, 80.0}) {
      record(out, "mc " + name + " B+" + std::to_string(int(extra)), [&] {
        const auto r = medcc::multicloud::critical_greedy_mc(inst, cmin + extra);
        std::string placements;
        for (const auto& p : r.schedule.of)
          placements += ' ' + std::to_string(p.site) + '.' +
                        std::to_string(p.type);
        return "it=" + std::to_string(r.iterations) + " med=" +
               hex(r.eval.med) + " cost=" + hex(r.eval.cost) +
               " xfer=" + hex(r.eval.transfer_cost) + " est=" +
               hex_list(r.eval.cpm.est) + " lst=" + hex_list(r.eval.cpm.lst) +
               " s=" + placements;
      });
    }
  }
}

/// GAIN2 (both move sets) and LOSS2 at all 20 of the paper's budget
/// levels on Table IV sizes 7-10: the makespan-probing solvers on the
/// dense shapes where most of their candidate moves cannot win a round.
void record_v2_levels(std::ostringstream& out) {
  using medcc::sched::GainLossVariant;
  using medcc::sched::GainMoveSet;
  const auto& sizes = medcc::expr::table4_sizes();
  for (std::size_t k = 6; k < 10; ++k) {
    for (const std::uint64_t seed : {1u, 2u}) {
      medcc::util::Prng rng(1000 * seed + k);
      const auto inst = medcc::expr::make_instance(sizes[k], rng);
      const std::string name =
          "t4s" + std::to_string(k + 1) + "/" + std::to_string(seed);
      const auto levels =
          medcc::sched::budget_levels(medcc::sched::cost_bounds(inst), 20);
      for (std::size_t b = 0; b < levels.size(); ++b) {
        const double budget = levels[b];
        const std::string at = name + " L" + std::to_string(b + 1) + " ";
        record(out, at + "gain2", [&] {
          const auto r = medcc::sched::gain(inst, budget, GainLossVariant::V2);
          return line(r.schedule, r.iterations, r.eval);
        });
        record(out, at + "gain2_all", [&] {
          const auto r = medcc::sched::gain(inst, budget, GainLossVariant::V2,
                                            GainMoveSet::AllPairs);
          return line(r.schedule, r.iterations, r.eval);
        });
        record(out, at + "loss2", [&] {
          const auto r = medcc::sched::loss(inst, budget, GainLossVariant::V2);
          return line(r.schedule, r.iterations, r.eval);
        });
      }
    }
  }
}

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "solver_outputs.txt";
}

TEST(KernelDifferential, SolverOutputsMatchGoldenFile) {
  medcc::util::ThreadPool pool(2);
  std::ostringstream out;
  for (const auto& named : golden_instances())
    record_instance(out, named, pool);
  record_multicloud(out);
  record_v2_levels(out);
  const std::string actual = out.str();

  if (std::getenv("MEDCC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(golden_path(), std::ios::binary);
    file << actual;
    ASSERT_TRUE(file.good()) << "failed to write " << golden_path();
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with MEDCC_UPDATE_GOLDEN=1 to create)";
  std::istringstream expected_lines(
      std::string(std::istreambuf_iterator<char>(in), {}));
  std::istringstream actual_lines(actual);
  std::string e_line;
  std::string a_line;
  for (int n = 1;; ++n) {
    const bool e_more = static_cast<bool>(std::getline(expected_lines, e_line));
    const bool a_more = static_cast<bool>(std::getline(actual_lines, a_line));
    if (!e_more && !a_more) break;
    ASSERT_TRUE(e_more && a_more && e_line == a_line)
        << "solver output diverges from golden at line " << n
        << "\n  expected: " << (e_more ? e_line : std::string("<eof>"))
        << "\n  actual:   " << (a_more ? a_line : std::string("<eof>"));
  }
}

}  // namespace
