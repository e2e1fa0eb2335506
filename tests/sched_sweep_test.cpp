// Differential test of the budget sweeps against the one-shot solvers:
// CgSweep::answer(B) must equal critical_greedy(inst, B) and
// Gain3Sweep::answer(B) must equal gain3(inst, B) -- schedule, iteration
// count, and MED and cost bit for bit -- at every budget of a sweep,
// asked in shuffled order, and throw the same Infeasible text below Cmin.
//
// Instances: Table IV sizes 1-20 x 5 seeds, the five Pegasus-style
// patterns, the paper's 6-module example at Table II's budgets and the
// WRF instance at Table VII's, and a move whose cost increase lies
// within the budget's epsilon. Budgets: the paper's 20 levels, Cmin,
// Cmax and random budgets above Cmax. One case answers from a single
// shared sweep on four threads. No timings are asserted.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cloud/vm_type.hpp"
#include "expr/instance_gen.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/gain_loss.hpp"
#include "testbed/wrf_experiment.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"

namespace {

using medcc::sched::CgSweep;
using medcc::sched::Gain3Sweep;
using medcc::sched::Instance;
using medcc::sched::Result;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same(const Result& want, const Result& got,
                 const std::string& where) {
  EXPECT_EQ(got.schedule, want.schedule) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(bits(got.eval.med), bits(want.eval.med)) << where;
  EXPECT_EQ(bits(got.eval.cost), bits(want.eval.cost)) << where;
}

/// The Infeasible text `solve` throws, or "" when it returns.
std::string infeasible_text(const std::function<Result()>& solve) {
  try {
    (void)solve();
  } catch (const medcc::Infeasible& e) {
    return e.what();
  }
  return "";
}

/// The paper's 20 levels, Cmin, Cmax, three random budgets up to 1.5 Cmax
/// and `extra`, shuffled.
std::vector<double> sweep_budgets(const Instance& inst, std::uint64_t seed,
                                  const std::vector<double>& extra = {}) {
  const auto bounds = medcc::sched::cost_bounds(inst);
  std::vector<double> budgets = medcc::sched::budget_levels(bounds, 20);
  budgets.push_back(bounds.cmin);
  budgets.push_back(bounds.cmax);
  medcc::util::Prng rng(seed);
  for (int k = 0; k < 3; ++k)
    budgets.push_back(rng.uniform_real(bounds.cmax, 1.5 * bounds.cmax));
  budgets.insert(budgets.end(), extra.begin(), extra.end());
  rng.shuffle(budgets);
  return budgets;
}

/// Checks both sweeps against both one-shot solvers on `budgets`, and
/// below Cmin.
void check_instance(const Instance& inst, const std::vector<double>& budgets,
                    const std::string& name) {
  const CgSweep cg(inst);
  const Gain3Sweep g3(inst);
  for (const double budget : budgets) {
    const std::string where = name + " at B=" + std::to_string(budget);
    expect_same(medcc::sched::critical_greedy(inst, budget), cg.answer(budget),
                "cg " + where);
    expect_same(medcc::sched::gain3(inst, budget), g3.answer(budget),
                "gain3 " + where);
  }
  const double below = 0.99 * medcc::sched::cost_bounds(inst).cmin;
  const std::string cg_text = infeasible_text(
      [&] { return medcc::sched::critical_greedy(inst, below); });
  ASSERT_FALSE(cg_text.empty()) << name;
  EXPECT_EQ(infeasible_text([&] { return cg.answer(below); }), cg_text)
      << name;
  const std::string g3_text =
      infeasible_text([&] { return medcc::sched::gain3(inst, below); });
  ASSERT_FALSE(g3_text.empty()) << name;
  EXPECT_EQ(infeasible_text([&] { return g3.answer(below); }), g3_text)
      << name;
}

Instance table4_instance(std::size_t size_index, std::uint64_t seed) {
  medcc::util::Prng rng(1000 * seed + size_index);
  return medcc::expr::make_instance(
      medcc::expr::table4_sizes()[size_index], rng);
}

TEST(BudgetSweep, TableIvSizesMatchOneShotSolvers) {
  const auto& sizes = medcc::expr::table4_sizes();
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Instance inst = table4_instance(s, seed);
      check_instance(inst, sweep_budgets(inst, 31 * seed + s),
                     "table4 size " + std::to_string(s + 1) + " seed " +
                         std::to_string(seed));
    }
  }
}

TEST(BudgetSweep, PatternShapesMatchOneShotSolvers) {
  medcc::util::Prng rng(2013);
  std::vector<std::pair<std::string, medcc::workflow::Workflow>> shapes;
  shapes.emplace_back("montage", medcc::workflow::montage_like(6, rng));
  shapes.emplace_back("epigenomics",
                      medcc::workflow::epigenomics_like(4, 4, rng));
  shapes.emplace_back("cybershake", medcc::workflow::cybershake_like(20, rng));
  shapes.emplace_back("ligo", medcc::workflow::ligo_like(3, 6, rng));
  shapes.emplace_back("sipht", medcc::workflow::sipht_like(16, rng));
  for (auto& [name, wf] : shapes) {
    auto catalog =
        medcc::cloud::random_linear_catalog(5, 12, rng, 1.0, 1.0, 0.25);
    const Instance inst =
        Instance::from_model(std::move(wf), std::move(catalog));
    check_instance(inst, sweep_budgets(inst, rng()), name);
  }
}

TEST(BudgetSweep, PaperExampleAtTableIiBudgets) {
  const Instance inst = Instance::from_model(
      medcc::workflow::example6(), medcc::cloud::example_catalog());
  // Both edges of each Table II band, the prose's B = 57, and B = 1000.
  const std::vector<double> table2 = {48.0, 48.9, 49.0, 49.9, 50.0,
                                      51.9, 52.0, 55.9, 56.0, 57.0,
                                      59.9, 60.0, 64.0, 1000.0};
  check_instance(inst, sweep_budgets(inst, 6, table2), "example6");
}

TEST(BudgetSweep, WrfInstanceAtTableViiBudgets) {
  const Instance inst = medcc::testbed::wrf_instance();
  check_instance(inst,
                 sweep_budgets(inst, 7, medcc::testbed::wrf_paper_budgets()),
                 "wrf");
}

// A move whose dC lies within the budget's epsilon: at B = Cmin a
// Critical-Greedy run stops before it (the budget left is within eps),
// while GAIN3 takes it (dC <= left + eps). The replay must ask the same
// two questions in the same order.
TEST(BudgetSweep, NearFreeUpgradeWithinEpsilon) {
  medcc::workflow::Workflow wf;
  const auto entry = wf.add_fixed_module("entry", 0.0);
  const auto w = wf.add_module("w", 10.0);
  const auto exit = wf.add_fixed_module("exit", 0.0);
  wf.add_dependency(entry, w);
  wf.add_dependency(w, exit);
  // Costs 10 on "slow" and 10 + 1e-10 on "fast".
  const Instance inst = Instance::from_matrix(
      std::move(wf),
      medcc::cloud::VmCatalog({{"slow", 1.0, 1.0}, {"fast", 2.0, 2.0 + 2e-11}}),
      {{10.0, 5.0}});
  const double cmin = medcc::sched::cost_bounds(inst).cmin;
  EXPECT_EQ(medcc::sched::critical_greedy(inst, cmin).iterations, 0u);
  EXPECT_EQ(medcc::sched::gain3(inst, cmin).iterations, 1u);
  check_instance(inst, sweep_budgets(inst, 5, {cmin + 1e-9, 11.0}),
                 "near-free");
}

// Four threads answer from one shared pair of sweeps, each in its own
// order; every answer must equal the one-shot solvers'.
TEST(BudgetSweep, SharedSweepAnswersConcurrently) {
  const Instance inst = table4_instance(19, 1);
  const std::vector<double> budgets = sweep_budgets(inst, 99);
  std::vector<Result> want_cg;
  std::vector<Result> want_g3;
  for (const double budget : budgets) {
    want_cg.push_back(medcc::sched::critical_greedy(inst, budget));
    want_g3.push_back(medcc::sched::gain3(inst, budget));
  }
  const CgSweep cg(inst);
  const Gain3Sweep g3(inst);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Result>> got_cg(kThreads);
  std::vector<std::vector<Result>> got_g3(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got_cg[t].resize(budgets.size());
      got_g3[t].resize(budgets.size());
      std::vector<std::size_t> order(budgets.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      medcc::util::Prng rng(t + 1);
      rng.shuffle(order);
      for (const std::size_t k : order) {
        got_cg[t][k] = cg.answer(budgets[k]);
        got_g3[t][k] = g3.answer(budgets[k]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < budgets.size(); ++k) {
      const std::string where = "thread " + std::to_string(t) +
                                " B=" + std::to_string(budgets[k]);
      expect_same(want_cg[k], got_cg[t][k], "cg " + where);
      expect_same(want_g3[k], got_g3[t][k], "gain3 " + where);
    }
  }
}

}  // namespace
