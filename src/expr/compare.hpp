// Scheduler comparison drivers shared by the reproduction benches:
// CG-vs-GAIN3 budget sweeps (Table IV, Figs. 8-11) and the small-scale
// optimality study (Table III, Fig. 7). Sweeps parallelize over
// (instance, budget) cells with per-cell deterministic PRNG streams.
#pragma once

#include <optional>
#include <vector>

#include "expr/instance_gen.hpp"
#include "sched/bounds.hpp"
#include "util/thread_pool.hpp"

namespace medcc::expr {

/// MED improvement of CG over GAIN3 (Section VI-B2):
/// (MED_GAIN - MED_CG) / MED_GAIN * 100.
[[nodiscard]] double improvement_percent(double med_cg, double med_gain);

/// One (instance, budget) comparison cell.
struct CompareCell {
  double budget = 0.0;
  double med_cg = 0.0;
  double med_gain = 0.0;
  double cost_cg = 0.0;
  double cost_gain = 0.0;

  [[nodiscard]] double improvement() const {
    return improvement_percent(med_cg, med_gain);
  }
};

/// CG vs GAIN3 on one instance across `levels` uniform budget levels in
/// [Cmin, Cmax], answered from one CgSweep and one Gain3Sweep.
[[nodiscard]] std::vector<CompareCell> sweep_budgets(
    const sched::Instance& inst, std::size_t levels);

/// Table IV: per problem size, one random instance, averaged over 20
/// budget levels.
struct SizeSummary {
  ProblemSize size;
  double avg_med_cg = 0.0;
  double avg_med_gain = 0.0;
  double avg_improvement = 0.0;   ///< mean over per-cell improvements
  double ratio = 0.0;             ///< avg_med_cg / avg_med_gain
};
[[nodiscard]] std::vector<SizeSummary> table4_sweep(
    util::ThreadPool& pool, std::uint64_t seed, std::size_t levels = 20);

/// Figs. 9-11: the full grid -- per problem size, `instances` random
/// workflows x `levels` budget levels. grid[size][level] is the mean
/// improvement over instances.
struct ImprovementGrid {
  std::vector<ProblemSize> sizes;
  std::vector<std::vector<double>> cell;  ///< [size][level]
  /// Mean over levels per size (Fig. 9) and over sizes per level (Fig. 10).
  std::vector<double> by_size;
  std::vector<double> by_level;
  double overall = 0.0;
};
[[nodiscard]] ImprovementGrid improvement_grid(util::ThreadPool& pool,
                                               std::uint64_t seed,
                                               std::size_t instances = 10,
                                               std::size_t levels = 20);

/// Table III / Fig. 7: small-scale comparison against exhaustive optimal.
struct OptimalityCell {
  double med_cg = 0.0;
  double med_gain = 0.0;
  double med_optimal = 0.0;
  bool cg_optimal = false;
  bool gain_optimal = false;
};
struct OptimalityStudy {
  ProblemSize size;
  std::vector<OptimalityCell> cells;  ///< one per instance
  double cg_percent_optimal = 0.0;
  double gain_percent_optimal = 0.0;
};
/// Runs `instances` random instances per size; the budget is the median of
/// [Cmin, Cmax] (Fig. 7's setting) unless `random_budget` (Table III's).
[[nodiscard]] std::vector<OptimalityStudy> optimality_study(
    util::ThreadPool& pool, const std::vector<ProblemSize>& sizes,
    std::size_t instances, std::uint64_t seed, bool random_budget = false);

}  // namespace medcc::expr
