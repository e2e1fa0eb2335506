// Differential test for GAIN2 and LOSS2, which run a forward pass only for
// the candidate moves whose certified CPM-slack bounds can reach the best
// weight, and for their budget sweeps (Gain2Sweep, Loss2Sweep), built once
// per instance and asked at every budget. The oracle below is the
// full-probe loop they replaced, kept verbatim: every candidate is scored
// with a full forward pass, every round. Schedule, iteration count and the
// MED and cost bit patterns must match on Table IV instances,
// Pegasus-shaped workflows, an edge-weighted instance and constructed tie
// and dominance cases. No timing is asserted.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "dag/cpm_kernel.hpp"
#include "expr/instance_gen.hpp"
#include "sched/bounds.hpp"
#include "sched/gain_loss.hpp"
#include "sched/schedule.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/random_workflow.hpp"

namespace {

using medcc::dag::NodeId;
using medcc::sched::GainLossVariant;
using medcc::sched::GainMoveSet;
using medcc::sched::Instance;
using medcc::sched::Result;

// ---------------------------------------------------------------------------
// Oracle: the full-probe V2 loops.

constexpr double kInf = std::numeric_limits<double>::infinity();

double cost_eps(double budget) { return 1e-9 * std::max(1.0, budget); }

struct Move {
  NodeId module = 0;
  std::size_t type = 0;
  double weight = 0.0;
  double dt = 0.0;
  double dc = 0.0;
};

/// Rounds in which the oracle met an exact tie of the selection key, so
/// that the move's position decided.
std::size_t exact_ties = 0;

template <typename Fn>
void for_each_target(const Instance& inst, GainMoveSet move_set, NodeId i,
                     std::size_t cur, Fn&& fn) {
  if (move_set == GainMoveSet::AllPairs) {
    for (std::size_t j = 0; j < inst.type_count(); ++j)
      if (j != cur) fn(j);
    return;
  }
  std::size_t best = cur;
  for (std::size_t j = 0; j < inst.type_count(); ++j) {
    if (inst.time(i, j) < inst.time(i, best) ||
        (inst.time(i, j) == inst.time(i, best) &&  // medcc-lint: allow(float-eq)
         inst.cost(i, j) < inst.cost(i, best)))
      best = j;
  }
  if (best != cur) fn(best);
}

Result oracle_gain2(const Instance& inst, double budget, GainMoveSet move_set) {
  Result result;
  result.schedule = medcc::sched::least_cost_schedule(inst);
  double current_cost = medcc::sched::total_cost(inst, result.schedule);
  if (budget < current_cost) throw medcc::Infeasible("oracle gain2");
  const auto computing = inst.workflow().computing_modules();
  const double eps = cost_eps(budget);
  const medcc::dag::FlatDag& flat = inst.flat_dag();
  medcc::dag::CpmWorkspace ws;
  medcc::dag::makespan_into(
      flat, medcc::sched::durations(inst, result.schedule), ws);
  for (;;) {
    const double left = budget - current_cost;
    if (left <= eps) break;
    const double med_cur = medcc::dag::makespan_into(flat, ws);
    bool found = false;
    Move best;
    for (NodeId i : computing) {
      const std::size_t cur = result.schedule.type_of[i];
      for_each_target(inst, move_set, i, cur, [&](std::size_t j) {
        const double dc = inst.cost(i, j) - inst.cost(i, cur);
        if (dc > left + eps) return;
        ws.weights[i] = inst.time(i, j);
        const double dt = med_cur - medcc::dag::makespan_into(flat, ws);
        ws.weights[i] = inst.time(i, cur);
        if (dt <= 0.0) return;
        const double w = dc <= 0.0 ? kInf : dt / dc;
        if (found && w == best.weight && dt == best.dt) ++exact_ties;
        if (!found || w > best.weight || (w == best.weight && dt > best.dt)) {
          found = true;
          best = Move{i, j, w, dt, dc};
        }
      });
    }
    if (!found) break;
    result.schedule.type_of[best.module] = best.type;
    ws.weights[best.module] = inst.time(best.module, best.type);
    current_cost += best.dc;
    ++result.iterations;
  }
  result.eval = medcc::sched::evaluate(inst, result.schedule);
  return result;
}

Result oracle_loss2(const Instance& inst, double budget) {
  const double cmin = medcc::sched::total_cost(
      inst, medcc::sched::least_cost_schedule(inst));
  if (budget < cmin) throw medcc::Infeasible("oracle loss2");
  Result result;
  result.schedule = medcc::sched::fastest_schedule(inst);
  double current_cost = medcc::sched::total_cost(inst, result.schedule);
  const auto computing = inst.workflow().computing_modules();
  const double eps = cost_eps(budget);
  const medcc::dag::FlatDag& flat = inst.flat_dag();
  medcc::dag::CpmWorkspace ws;
  medcc::dag::makespan_into(
      flat, medcc::sched::durations(inst, result.schedule), ws);
  while (current_cost > budget + eps) {
    const double med_cur = medcc::dag::makespan_into(flat, ws);
    bool found = false;
    Move best;
    for (NodeId i : computing) {
      const std::size_t cur = result.schedule.type_of[i];
      for (std::size_t j = 0; j < inst.type_count(); ++j) {
        if (j == cur) continue;
        const double saving = inst.cost(i, cur) - inst.cost(i, j);
        if (saving <= 0.0) continue;
        ws.weights[i] = inst.time(i, j);
        const double loss_t = medcc::dag::makespan_into(flat, ws) - med_cur;
        ws.weights[i] = inst.time(i, cur);
        const double w = loss_t <= 0.0 ? -kInf : loss_t / saving;
        if (found && w == best.weight && saving == -best.dc) ++exact_ties;
        if (!found || w < best.weight ||
            (w == best.weight && saving > -best.dc)) {
          found = true;
          best = Move{i, j, w, loss_t, -saving};
        }
      }
    }
    EXPECT_TRUE(found);
    if (!found) break;
    result.schedule.type_of[best.module] = best.type;
    ws.weights[best.module] = inst.time(best.module, best.type);
    current_cost += best.dc;
    ++result.iterations;
  }
  result.eval = medcc::sched::evaluate(inst, result.schedule);
  return result;
}

// ---------------------------------------------------------------------------
// Comparison.

std::optional<Result> run(const std::function<Result()>& solve) {
  try {
    return solve();
  } catch (const medcc::Infeasible&) {
    return std::nullopt;
  }
}

void expect_same(const std::optional<Result>& got,
                 const std::optional<Result>& want, const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->schedule, want->schedule) << where;
  EXPECT_EQ(got->iterations, want->iterations) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->eval.med),
            std::bit_cast<std::uint64_t>(want->eval.med))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->eval.cost),
            std::bit_cast<std::uint64_t>(want->eval.cost))
      << where;
}

/// `levels` budget levels, plus Cmin, Cmax and a budget just below Cmin
/// when `extremes`.
std::vector<double> budgets_of(const Instance& inst, std::size_t levels,
                               bool extremes) {
  const auto bounds = medcc::sched::cost_bounds(inst);
  auto budgets = medcc::sched::budget_levels(bounds, levels);
  if (extremes)
    budgets.insert(budgets.end(), {bounds.cmin, bounds.cmax, bounds.cmin - 0.5});
  return budgets;
}

/// Compares gain2, loss2 and, when `all_pairs`, gain2 over every (module,
/// type) move with the oracle at each budget: both the one-shot solvers
/// and their sweeps, each sweep built once for all budgets.
void expect_matches_oracle(const Instance& inst,
                           const std::vector<double>& budgets,
                           const std::string& name, bool all_pairs = true) {
  const medcc::sched::Gain2Sweep gain2_sweep(inst);
  std::optional<medcc::sched::Gain2Sweep> gain2_all_sweep;
  if (all_pairs) gain2_all_sweep.emplace(inst, GainMoveSet::AllPairs);
  const medcc::sched::Loss2Sweep loss2_sweep(inst);
  for (const double budget : budgets) {
    const std::string at = name + " @" + std::to_string(budget);
    for (const auto move_set : {GainMoveSet::FastestType, GainMoveSet::AllPairs}) {
      if (move_set == GainMoveSet::AllPairs && !all_pairs) continue;
      const std::string label =
          at + (move_set == GainMoveSet::AllPairs ? " gain2_all" : " gain2");
      const auto want =
          run([&] { return oracle_gain2(inst, budget, move_set); });
      expect_same(run([&] {
                    return medcc::sched::gain(inst, budget, GainLossVariant::V2,
                                              move_set);
                  }),
                  want, label);
      const medcc::sched::Gain2Sweep& sweep =
          move_set == GainMoveSet::AllPairs ? *gain2_all_sweep : gain2_sweep;
      expect_same(run([&] { return sweep.answer(budget); }), want,
                  label + " sweep");
    }
    const auto want = run([&] { return oracle_loss2(inst, budget); });
    expect_same(run([&] {
                  return medcc::sched::loss(inst, budget, GainLossVariant::V2);
                }),
                want, at + " loss2");
    expect_same(run([&] { return loss2_sweep.answer(budget); }), want,
                at + " loss2 sweep");
  }
}

/// The same at the paper's 20 levels plus the extremes.
void expect_matches_oracle(const Instance& inst, const std::string& name) {
  expect_matches_oracle(inst, budgets_of(inst, 20, true), name);
}

std::string t4_name(std::size_t k, std::uint64_t seed) {
  return "t4s" + std::to_string(k + 1) + "/" + std::to_string(seed);
}

Instance t4_instance(std::size_t k, std::uint64_t seed) {
  medcc::util::Prng rng(7000 + 100 * seed + k);
  return medcc::expr::make_instance(medcc::expr::table4_sizes()[k], rng);
}

// One case per Table IV size, by index (0 for size 1), so the sizes can
// be spread over separate runs by cost. Sizes 1-12 run three seeds at the
// paper's 20 levels plus the extremes. The all-pairs oracle probes every
// (module, type) move every round and would take most of the run time
// here, under sanitizers minutes, so it runs on seed 1 of those sizes
// only. Sizes 13-20 run one seed at 5 levels.
class TableFourSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TableFourSize, MatchesOracle) {
  const std::size_t k = GetParam();
  if (k < 12) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto inst = t4_instance(k, seed);
      expect_matches_oracle(inst, budgets_of(inst, 20, true),
                            t4_name(k, seed), seed == 1);
    }
  } else {
    const auto inst = t4_instance(k, 1);
    expect_matches_oracle(inst, budgets_of(inst, 5, false), t4_name(k, 1),
                          false);
  }
}

INSTANTIATE_TEST_SUITE_P(GainLossDifferential, TableFourSize,
                         ::testing::Range<std::size_t>(0, 20));

TEST(GainLossDifferential, PegasusShapes) {
  medcc::util::Prng rng(41);
  std::vector<std::pair<std::string, medcc::workflow::Workflow>> shapes;
  shapes.emplace_back("montage", medcc::workflow::montage_like(3, rng));
  shapes.emplace_back("epigenomics",
                      medcc::workflow::epigenomics_like(2, 2, rng));
  shapes.emplace_back("cybershake", medcc::workflow::cybershake_like(3, rng));
  shapes.emplace_back("ligo", medcc::workflow::ligo_like(2, 3, rng));
  shapes.emplace_back("sipht", medcc::workflow::sipht_like(4, rng));
  for (auto& [name, wf] : shapes) {
    auto catalog =
        medcc::cloud::random_linear_catalog(4, 12, rng, 1.0, 1.0, 0.25);
    expect_matches_oracle(
        Instance::from_model(std::move(wf), std::move(catalog)), name);
  }
}

TEST(GainLossDifferential, EdgeWeightedTransferTimes) {
  for (const std::uint64_t seed : {91u, 92u}) {
    medcc::util::Prng rng(seed);
    medcc::workflow::RandomWorkflowSpec spec;
    spec.modules = 12;
    spec.edges = 24;
    spec.data_size_min = 1.0;
    spec.data_size_max = 20.0;
    auto wf = medcc::workflow::random_workflow(spec, rng);
    auto catalog =
        medcc::cloud::random_linear_catalog(4, 12, rng, 1.0, 1.0, 0.25);
    medcc::cloud::NetworkModel network;
    network.bandwidth = 5.0;
    network.link_delay = 0.5;
    network.transfer_cost_rate = 0.1;
    expect_matches_oracle(
        Instance::from_model(std::move(wf), std::move(catalog),
                             medcc::cloud::BillingPolicy::per_unit_time(),
                             network),
        "net" + std::to_string(seed));
  }
}

TEST(GainLossDifferential, DuplicateTypesTieOnPosition) {
  // Every type appears twice, so every move has an exact twin: equal
  // weight and equal dt or saving, decided by position alone.
  exact_ties = 0;
  for (const std::uint64_t seed : {1u, 2u}) {
    medcc::util::Prng rng(300 + seed);
    medcc::workflow::RandomWorkflowSpec spec;
    spec.modules = 10;
    spec.edges = 18;
    auto wf = medcc::workflow::random_workflow(spec, rng);
    const auto catalog = medcc::cloud::random_linear_catalog(3, 9, rng);
    std::vector<medcc::cloud::VmType> types;
    for (const auto& t : catalog.types()) {
      types.push_back(t);
      types.push_back(t);
    }
    expect_matches_oracle(
        Instance::from_model(std::move(wf),
                             medcc::cloud::VmCatalog(std::move(types))),
        "dup" + std::to_string(seed));
  }
  EXPECT_GT(exact_ties, 0u);
}

TEST(GainLossDifferential, NonMonotoneCatalogs) {
  // Random time matrices over random prices: price no longer follows
  // speed, and a type can be both cheaper and faster than another.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    medcc::util::Prng rng(500 + seed);
    medcc::workflow::RandomWorkflowSpec spec;
    spec.modules = 10;
    spec.edges = 20;
    auto wf = medcc::workflow::random_workflow(spec, rng);
    std::vector<medcc::cloud::VmType> types;
    for (std::size_t j = 0; j < 4; ++j)
      types.push_back({"T" + std::to_string(j), 1.0, rng.uniform_real(0.5, 3.0)});
    std::vector<std::vector<double>> times(
        wf.computing_modules().size(), std::vector<double>(types.size()));
    for (auto& row : times)
      for (double& t : row) t = rng.uniform_real(1.0, 20.0);
    expect_matches_oracle(
        Instance::from_matrix(std::move(wf),
                              medcc::cloud::VmCatalog(std::move(types)), times),
        "nonmono" + std::to_string(seed));
  }
}

TEST(GainLossDifferential, EqualParallelModules) {
  // Identical fork-join branches: every branch is critical, each move has
  // the same loss, and speeding up one branch alone leaves the makespan.
  exact_ties = 0;
  for (const std::size_t width : {2u, 4u}) {
    medcc::util::Prng rng(60 + width);
    auto wf = medcc::workflow::fork_join(width, 2, 10.0, 10.0, rng);
    expect_matches_oracle(
        Instance::from_model(std::move(wf), medcc::cloud::example_catalog()),
        "forkjoin" + std::to_string(width));
  }
  EXPECT_GT(exact_ties, 0u);
}

TEST(GainLossDifferential, SlackConsumedUpToRounding) {
  // Branch b1 -> b2 takes 0.1 + 0.2 on T1, one ulp above branch a's 0.3,
  // so downgrading b2 to T1 costs exactly that ulp: its weight is tiny
  // but not -inf, and it saves more than c's free downgrade, which must
  // still win. Sub-unit times bill one unit, so each cost is the rate.
  medcc::workflow::Workflow wf;
  const NodeId entry = wf.add_fixed_module("entry", 0.0);
  const NodeId a = wf.add_module("a", 1.0);
  const NodeId b1 = wf.add_module("b1", 1.0);
  const NodeId b2 = wf.add_module("b2", 1.0);
  const NodeId c = wf.add_module("c", 1.0);
  const NodeId exit = wf.add_fixed_module("exit", 0.0);
  for (const NodeId first : {a, b1, c}) wf.add_dependency(entry, first);
  wf.add_dependency(b1, b2);
  for (const NodeId last : {a, b2, c}) wf.add_dependency(last, exit);
  medcc::cloud::VmCatalog catalog(
      {{"T0", 1.0, 5.0}, {"T1", 1.0, 2.0}, {"T2", 1.0, 1.5}});
  const std::vector<std::vector<double>> times = {
      {0.3, 0.3, 0.3}, {0.1, 0.1, 0.1}, {0.1, 0.2, 0.9}, {0.5, 0.05, 0.2}};
  expect_matches_oracle(
      Instance::from_matrix(std::move(wf), std::move(catalog), times),
      "rounding");
}

TEST(GainLossDifferential, WeightsWithinTheMargin) {
  // Two parallel critical modules: x -> T1 loses 0.15 for a saving of 3,
  // y -> T2 loses 0.05 for a saving of 1. The weights differ by a few ulps,
  // far inside both bounds, and the wider interval (smaller saving) has
  // the lower lower bound but the higher weight.
  medcc::workflow::Workflow wf;
  const NodeId entry = wf.add_fixed_module("entry", 0.0);
  const NodeId x = wf.add_module("x", 1.0);
  const NodeId y = wf.add_module("y", 1.0);
  const NodeId exit = wf.add_fixed_module("exit", 0.0);
  for (const NodeId mid : {x, y}) {
    wf.add_dependency(entry, mid);
    wf.add_dependency(mid, exit);
  }
  medcc::cloud::VmCatalog catalog(
      {{"T0", 1.0, 4.0}, {"T1", 1.0, 1.0}, {"T2", 1.0, 3.0}});
  const std::vector<std::vector<double>> times = {{0.5, 0.65, 0.99},
                                                  {0.5, 0.99, 0.55}};
  expect_matches_oracle(
      Instance::from_matrix(std::move(wf), std::move(catalog), times),
      "margin");
}

TEST(GainLossDifferential, SingleModule) {
  const std::vector<double> workload = {42.0};
  expect_matches_oracle(
      Instance::from_model(medcc::workflow::pipeline(workload),
                           medcc::cloud::example_catalog()),
      "single");
}

}  // namespace
