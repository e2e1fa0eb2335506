// Every scheduler's output is run through the analysis verifiers: the
// budget-constrained family (CG, GAIN3, LOSS, genetic, annealing,
// exhaustive, reuse-aware) through verify_schedule, the deadline family
// (PCP, deadline_loss, exact) through verify_schedule with a deadline,
// and plan_vm_reuse through verify_reuse_plan. A scheduler whose result
// fails an invariant breaks here regardless of the MEDCC_CHECK_INVARIANTS
// build option.
#include <gtest/gtest.h>

#include "analysis/verify.hpp"
#include "sched/annealing.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/deadline.hpp"
#include "sched/exhaustive.hpp"
#include "sched/gain_loss.hpp"
#include "sched/genetic.hpp"
#include "sched/pcp.hpp"
#include "sched/reuse_aware.hpp"
#include "sched/vm_reuse.hpp"
#include "workflow/patterns.hpp"

namespace {

using medcc::analysis::VerifyOptions;
using medcc::analysis::verify_reuse_plan;
using medcc::analysis::verify_schedule;
using medcc::sched::Instance;

Instance example_instance() {
  return Instance::from_model(medcc::workflow::example6(),
                              medcc::cloud::example_catalog());
}

/// A budget in the interesting middle of [Cmin, Cmax].
double mid_budget(const Instance& inst) {
  const auto bounds = medcc::sched::cost_bounds(inst);
  return bounds.cmin + 0.5 * (bounds.cmax - bounds.cmin);
}

void expect_clean(const medcc::analysis::Diagnostics& diag) {
  EXPECT_TRUE(diag.ok()) << diag.to_string();
}

void verify_budgeted(const Instance& inst, const medcc::sched::Schedule& s,
                     const medcc::sched::Evaluation& eval, double budget) {
  VerifyOptions options;
  options.budget = budget;
  expect_clean(verify_schedule(inst, s, eval, options));
}

TEST(AnalysisSchedulers, CriticalGreedy) {
  const auto inst = example_instance();
  const double budget = mid_budget(inst);
  const auto r = medcc::sched::critical_greedy(inst, budget);
  verify_budgeted(inst, r.schedule, r.eval, budget);
}

TEST(AnalysisSchedulers, Gain3) {
  const auto inst = example_instance();
  const double budget = mid_budget(inst);
  const auto r = medcc::sched::gain3(inst, budget);
  verify_budgeted(inst, r.schedule, r.eval, budget);
}

TEST(AnalysisSchedulers, Loss) {
  const auto inst = example_instance();
  const double budget = mid_budget(inst);
  const auto r = medcc::sched::loss(inst, budget);
  verify_budgeted(inst, r.schedule, r.eval, budget);
}

TEST(AnalysisSchedulers, Genetic) {
  const auto inst = example_instance();
  const double budget = mid_budget(inst);
  medcc::sched::GeneticOptions options;
  options.population = 16;
  options.generations = 12;
  const auto r = medcc::sched::genetic(inst, budget, options);
  verify_budgeted(inst, r.schedule, r.eval, budget);
}

TEST(AnalysisSchedulers, Annealing) {
  const auto inst = example_instance();
  const double budget = mid_budget(inst);
  medcc::sched::AnnealingOptions options;
  options.iterations = 500;
  const auto r = medcc::sched::annealing(inst, budget, options);
  verify_budgeted(inst, r.schedule, r.eval, budget);
}

TEST(AnalysisSchedulers, Exhaustive) {
  const auto inst = example_instance();
  const double budget = mid_budget(inst);
  const auto r = medcc::sched::exhaustive_optimal(inst, budget);
  verify_budgeted(inst, r.schedule, r.eval, budget);
}

TEST(AnalysisSchedulers, PcpDeadline) {
  const auto inst = example_instance();
  const auto fastest =
      medcc::sched::evaluate(inst, medcc::sched::fastest_schedule(inst));
  const double deadline = fastest.med * 1.25;
  const auto r = medcc::sched::pcp_deadline(inst, deadline);
  VerifyOptions options;
  options.deadline = deadline;
  expect_clean(verify_schedule(inst, r.schedule, r.eval, options));
}

TEST(AnalysisSchedulers, DeadlineLoss) {
  const auto inst = example_instance();
  const auto fastest =
      medcc::sched::evaluate(inst, medcc::sched::fastest_schedule(inst));
  const double deadline = fastest.med * 1.25;
  const auto r = medcc::sched::deadline_loss(inst, deadline);
  VerifyOptions options;
  options.deadline = deadline;
  expect_clean(verify_schedule(inst, r.schedule, r.eval, options));
}

TEST(AnalysisSchedulers, MinCostUnderDeadlineExact) {
  const auto inst = example_instance();
  const auto fastest =
      medcc::sched::evaluate(inst, medcc::sched::fastest_schedule(inst));
  const double deadline = fastest.med * 1.25;
  const auto r = medcc::sched::min_cost_under_deadline_exact(inst, deadline);
  VerifyOptions options;
  options.deadline = deadline;
  expect_clean(verify_schedule(inst, r.schedule, r.eval, options));
}

TEST(AnalysisSchedulers, VmReusePlan) {
  const auto inst = example_instance();
  const auto r = medcc::sched::critical_greedy(inst, mid_budget(inst));
  const auto plan = medcc::sched::plan_vm_reuse(inst, r.schedule);
  expect_clean(verify_reuse_plan(inst, r.schedule, plan));
}

TEST(AnalysisSchedulers, ReuseAwareCriticalGreedy) {
  const auto inst = example_instance();
  const auto r =
      medcc::sched::critical_greedy_reuse_aware(inst, mid_budget(inst));
  // The analytic cost may exceed the budget by design (feasibility is
  // billed-with-reuse), so verify without a budget bound, then check the
  // reuse plan against the billed cost.
  expect_clean(verify_schedule(inst, r.schedule, r.eval));
  const auto plan = medcc::sched::plan_vm_reuse(inst, r.schedule);
  expect_clean(verify_reuse_plan(inst, r.schedule, plan));
}

// Verifiers also hold on a larger random instance, not just the paper
// example.
TEST(AnalysisSchedulers, CriticalGreedyOnRandomInstance) {
  medcc::util::Prng rng(7);
  const auto wf = medcc::workflow::layered(4, 5, 5.0, 30.0, rng);
  const auto inst =
      Instance::from_model(wf, medcc::cloud::example_catalog());
  const double budget = mid_budget(inst);
  const auto r = medcc::sched::critical_greedy(inst, budget);
  verify_budgeted(inst, r.schedule, r.eval, budget);
}

}  // namespace
