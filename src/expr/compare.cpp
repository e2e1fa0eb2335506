#include "expr/compare.hpp"

#include <cmath>

#include "sched/critical_greedy.hpp"
#include "sched/exhaustive.hpp"
#include "sched/gain_loss.hpp"

namespace medcc::expr {

double improvement_percent(double med_cg, double med_gain) {
  if (med_gain <= 0.0) return 0.0;
  return (med_gain - med_cg) / med_gain * 100.0;
}

std::vector<CompareCell> sweep_budgets(const sched::Instance& inst,
                                       std::size_t levels) {
  const auto bounds = sched::cost_bounds(inst);
  const auto budgets = sched::budget_levels(bounds, levels);
  const sched::CgSweep cg_sweep(inst);
  const sched::Gain3Sweep gain3_sweep(inst);
  std::vector<CompareCell> cells;
  cells.reserve(budgets.size());
  for (double budget : budgets) {
    CompareCell cell;
    cell.budget = budget;
    const auto cg = cg_sweep.answer(budget);
    const auto g3 = gain3_sweep.answer(budget);
    cell.med_cg = cg.eval.med;
    cell.med_gain = g3.eval.med;
    cell.cost_cg = cg.eval.cost;
    cell.cost_gain = g3.eval.cost;
    cells.push_back(cell);
  }
  return cells;
}

std::vector<SizeSummary> table4_sweep(util::ThreadPool& pool,
                                      std::uint64_t seed,
                                      std::size_t levels) {
  const auto& sizes = table4_sizes();
  std::vector<SizeSummary> summaries(sizes.size());
  util::Prng root(seed);
  util::parallel_for_index(pool, sizes.size(), [&](std::size_t s) {
    auto rng = root.fork(s);
    const auto inst = make_instance(sizes[s], rng);
    const auto cells = sweep_budgets(inst, levels);
    SizeSummary summary;
    summary.size = sizes[s];
    for (const auto& cell : cells) {
      summary.avg_med_cg += cell.med_cg;
      summary.avg_med_gain += cell.med_gain;
      summary.avg_improvement += cell.improvement();
    }
    const auto count = static_cast<double>(cells.size());
    summary.avg_med_cg /= count;
    summary.avg_med_gain /= count;
    summary.avg_improvement /= count;
    summary.ratio = summary.avg_med_gain > 0.0
                        ? summary.avg_med_cg / summary.avg_med_gain
                        : 1.0;
    summaries[s] = summary;
  });
  return summaries;
}

ImprovementGrid improvement_grid(util::ThreadPool& pool, std::uint64_t seed,
                                 std::size_t instances, std::size_t levels) {
  const auto& sizes = table4_sizes();
  ImprovementGrid grid;
  grid.sizes = sizes;
  grid.cell.assign(sizes.size(), std::vector<double>(levels, 0.0));

  util::Prng root(seed);
  // One parallel task per (size, instance); accumulation into the per-size
  // level vector is protected per-task by writing to distinct slices.
  std::vector<std::vector<std::vector<double>>> partial(
      sizes.size(),
      std::vector<std::vector<double>>(instances,
                                       std::vector<double>(levels, 0.0)));
  util::parallel_for_index(
      pool, sizes.size() * instances, [&](std::size_t idx) {
        const std::size_t s = idx / instances;
        const std::size_t k = idx % instances;
        auto rng = root.fork(idx);
        const auto inst = make_instance(sizes[s], rng);
        const auto cells = sweep_budgets(inst, levels);
        for (std::size_t level = 0; level < levels; ++level)
          partial[s][k][level] = cells[level].improvement();
      });

  for (std::size_t s = 0; s < sizes.size(); ++s)
    for (std::size_t level = 0; level < levels; ++level) {
      double sum = 0.0;
      for (std::size_t k = 0; k < instances; ++k)
        sum += partial[s][k][level];
      grid.cell[s][level] = sum / static_cast<double>(instances);
    }

  grid.by_size.assign(sizes.size(), 0.0);
  grid.by_level.assign(levels, 0.0);
  for (std::size_t s = 0; s < sizes.size(); ++s)
    for (std::size_t level = 0; level < levels; ++level) {
      grid.by_size[s] += grid.cell[s][level];
      grid.by_level[level] += grid.cell[s][level];
      grid.overall += grid.cell[s][level];
    }
  for (auto& v : grid.by_size) v /= static_cast<double>(levels);
  for (auto& v : grid.by_level) v /= static_cast<double>(sizes.size());
  grid.overall /= static_cast<double>(sizes.size() * levels);
  return grid;
}

std::vector<OptimalityStudy> optimality_study(
    util::ThreadPool& pool, const std::vector<ProblemSize>& sizes,
    std::size_t instances, std::uint64_t seed, bool random_budget) {
  std::vector<OptimalityStudy> studies(sizes.size());
  util::Prng root(seed);
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    studies[s].size = sizes[s];
    studies[s].cells.assign(instances, {});
  }
  util::parallel_for_index(
      pool, sizes.size() * instances, [&](std::size_t idx) {
        const std::size_t s = idx / instances;
        const std::size_t k = idx % instances;
        auto rng = root.fork(idx);
        const auto inst = make_instance(sizes[s], rng);
        const auto bounds = sched::cost_bounds(inst);
        const double budget =
            random_budget
                ? rng.uniform_real(bounds.cmin, bounds.cmax)
                : 0.5 * (bounds.cmin + bounds.cmax);
        OptimalityCell cell;
        cell.med_cg = sched::critical_greedy(inst, budget).eval.med;
        cell.med_gain = sched::gain3(inst, budget).eval.med;
        cell.med_optimal = sched::exhaustive_optimal(inst, budget).eval.med;
        const double tol = 1e-9 * std::max(1.0, cell.med_optimal);
        cell.cg_optimal = cell.med_cg <= cell.med_optimal + tol;
        cell.gain_optimal = cell.med_gain <= cell.med_optimal + tol;
        studies[s].cells[k] = cell;
      });
  for (auto& study : studies) {
    std::size_t cg = 0, gain = 0;
    for (const auto& cell : study.cells) {
      cg += cell.cg_optimal ? 1 : 0;
      gain += cell.gain_optimal ? 1 : 0;
    }
    const auto count = static_cast<double>(study.cells.size());
    study.cg_percent_optimal = 100.0 * static_cast<double>(cg) / count;
    study.gain_percent_optimal = 100.0 * static_cast<double>(gain) / count;
  }
  return studies;
}

}  // namespace medcc::expr
