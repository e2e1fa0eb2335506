// Differential test of the budget sweeps against the one-shot solvers:
// for each built-in solver that carries a sweep (cg, gain2, gain3, loss2:
// CgSweep, Gain2Sweep, Gain3Sweep, Loss2Sweep), answer(B) must equal the
// solver's one-shot result -- schedule, iteration count, and MED and cost
// bit for bit -- at every budget of a sweep, asked in shuffled order, and
// throw the same Infeasible text below Cmin.
//
// Instances: Table IV sizes 1-20 x 5 seeds (one parameterised case per
// size), the five Pegasus-style patterns, the paper's 6-module example at
// Table II's budgets and the WRF instance at Table VII's, a move whose
// cost increase lies within the budget's epsilon, and budgets whose LOSS2
// stopping threshold lands exactly on, or one ulp below, a cost the LOSS2
// run passes through. Budgets: the paper's 20 levels, Cmin, Cmax and
// random budgets above Cmax. One case answers from shared sweeps on four
// threads. No timings are asserted.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cloud/vm_type.hpp"
#include "expr/instance_gen.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/gain_loss.hpp"
#include "sched/solver_registry.hpp"
#include "testbed/wrf_experiment.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"

namespace {

using medcc::sched::BudgetSweep;
using medcc::sched::Instance;
using medcc::sched::Result;
using medcc::sched::SolverEntry;

/// The built-in solvers that carry a sweep.
const std::vector<std::string> kSwept = {"cg", "gain2", "gain3", "loss2"};

/// The built-in entry of `solver`, which must carry a sweep.
const SolverEntry& entry_of(const std::string& solver) {
  const SolverEntry* entry =
      medcc::sched::SolverRegistry::built_in().entry(solver);
  if (entry == nullptr || entry->sweep == nullptr)
    throw std::logic_error(solver + " has no built-in sweep");
  return *entry;
}

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

/// Checks every sweep against its one-shot solver on `budgets`, and
/// below Cmin.
void check_instance(const Instance& inst, const std::vector<double>& budgets,
                    const std::string& name) {
  const double below = 0.99 * medcc::sched::cost_bounds(inst).cmin;
  for (const std::string& solver : kSwept) {
    const SolverEntry& entry = entry_of(solver);
    const auto sweep = entry.sweep(inst);
    for (const double budget : budgets) {
      expect_same(entry.solve(inst, budget), sweep->answer(budget),
                  solver + " " + name + " at B=" + std::to_string(budget));
    }
    const std::string text =
        infeasible_text([&] { return entry.solve(inst, below); });
    ASSERT_FALSE(text.empty()) << solver << " " << name;
    EXPECT_EQ(infeasible_text([&] { return sweep->answer(below); }), text)
        << solver << " " << name;
  }
}

Instance table4_instance(std::size_t size_index, std::uint64_t seed) {
  medcc::util::Prng rng(1000 * seed + size_index);
  return medcc::expr::make_instance(
      medcc::expr::table4_sizes()[size_index], rng);
}

// One case per Table IV size, so that ctest can run them as shards.
class TableIvSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TableIvSize, MatchesOneShotSolvers) {
  const std::size_t s = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Instance inst = table4_instance(s, seed);
    check_instance(inst, sweep_budgets(inst, 31 * seed + s),
                   "table4 size " + std::to_string(s + 1) + " seed " +
                       std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(BudgetSweep, TableIvSize,
                         ::testing::Range<std::size_t>(0, 20));

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
// Critical-Greedy or GAIN2 run stops before it (the budget left is
// within eps), while GAIN3 takes it (dC <= left + eps). Just above Cmin
// the budget left is still within eps but exceeds dC. The replay must ask
// the same two questions in the same order.
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
  EXPECT_EQ(medcc::sched::gain(inst, cmin, medcc::sched::GainLossVariant::V2)
                .iterations,
            0u);
  EXPECT_EQ(medcc::sched::gain(inst, cmin + 1e-9,
                               medcc::sched::GainLossVariant::V2)
                .iterations,
            0u);
  check_instance(inst, sweep_budgets(inst, 5, {cmin + 1e-9, 11.0}),
                 "near-free");
}

/// LOSS's stopping threshold at `budget`: it downgrades while the cost
/// exceeds budget + eps(budget).
double loss_threshold(double budget) {
  return budget + 1e-9 * std::max(1.0, budget);
}

/// The budget whose threshold is exactly `cost`, or NaN.
double budget_at_threshold(double cost) {
  constexpr double kUp = std::numeric_limits<double>::infinity();
  double budget = cost / (1.0 + 1e-9);
  for (int step = 0; step < 64; ++step) {
    const double t = loss_threshold(budget);
    if (t == cost) return budget;  // medcc-lint: allow(float-eq)
    budget = std::nextafter(budget, t < cost ? kUp : 0.0);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// The paper's example has integer costs, so the LOSS2 run's running cost
// at each stop is the evaluated cost of the schedule it stops at. At a
// budget whose threshold equals that cost the run stops there (the cost
// does not exceed the threshold); one ulp of budget below, it takes one
// more move. The sweep must draw the same line.
TEST(BudgetSweep, Loss2StopsExactlyAtARecordedCost) {
  const Instance inst = Instance::from_model(
      medcc::workflow::example6(), medcc::cloud::example_catalog());
  const auto bounds = medcc::sched::cost_bounds(inst);
  const medcc::sched::Loss2Sweep sweep(inst);
  const auto loss2 = [&](double budget) {
    return medcc::sched::loss(inst, budget, medcc::sched::GainLossVariant::V2);
  };
  std::size_t checked = 0;
  for (const double level : medcc::sched::budget_levels(bounds, 20)) {
    const double stop = loss2(level).eval.cost;
    ASSERT_EQ(stop, std::round(stop));  // medcc-lint: allow(float-eq)
    const double at = budget_at_threshold(stop);
    ASSERT_FALSE(std::isnan(at)) << stop;
    const double below = std::nextafter(at, 0.0);
    ASSERT_LT(loss_threshold(below), stop);
    if (below < bounds.cmin) continue;
    const std::string where = "stop " + std::to_string(stop);
    const Result want_at = loss2(at);
    EXPECT_EQ(bits(want_at.eval.cost), bits(stop)) << where;
    expect_same(want_at, sweep.answer(at), "at " + where);
    const Result want_below = loss2(below);
    EXPECT_EQ(want_below.iterations, want_at.iterations + 1) << where;
    expect_same(want_below, sweep.answer(below), "below " + where);
    ++checked;
  }
  EXPECT_GT(checked, 5u);
}

// Four threads answer from one shared sweep per solver, each in its own
// order; every answer must equal the one-shot solver's.
TEST(BudgetSweep, SharedSweepAnswersConcurrently) {
  const Instance inst = table4_instance(19, 1);
  const std::vector<double> budgets = sweep_budgets(inst, 99);
  std::vector<std::unique_ptr<const BudgetSweep>> sweeps;
  std::vector<std::vector<Result>> want(kSwept.size());
  for (std::size_t s = 0; s < kSwept.size(); ++s) {
    const SolverEntry& entry = entry_of(kSwept[s]);
    sweeps.push_back(entry.sweep(inst));
    for (const double budget : budgets)
      want[s].push_back(entry.solve(inst, budget));
  }

  constexpr std::size_t kThreads = 4;
  // got[t][s][k]: thread t's answer from sweep s at budgets[k].
  std::vector<std::vector<std::vector<Result>>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].assign(kSwept.size(), std::vector<Result>(budgets.size()));
      std::vector<std::size_t> order(budgets.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      medcc::util::Prng rng(t + 1);
      rng.shuffle(order);
      for (const std::size_t k : order)
        for (std::size_t s = 0; s < kSwept.size(); ++s)
          got[t][s][k] = sweeps[s]->answer(budgets[k]);
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t s = 0; s < kSwept.size(); ++s) {
      for (std::size_t k = 0; k < budgets.size(); ++k) {
        expect_same(want[s][k], got[t][s][k],
                    kSwept[s] + " thread " + std::to_string(t) +
                        " B=" + std::to_string(budgets[k]));
      }
    }
  }
}

}  // namespace
