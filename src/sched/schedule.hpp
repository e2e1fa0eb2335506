// Schedule representation and evaluation for MED-CC.
#pragma once

#include <string>
#include <vector>

#include "dag/critical_path.hpp"
#include "sched/instance.hpp"

namespace medcc::sched {

/// A task schedule S : w_i -> VT_j, stored per module id. Entries for
/// fixed (entry/exit) modules are ignored by evaluation but kept so the
/// vector is indexable by NodeId.
struct Schedule {
  std::vector<std::size_t> type_of;

  [[nodiscard]] bool operator==(const Schedule&) const = default;
};

/// Full evaluation of a schedule against an instance.
struct Evaluation {
  double med = 0.0;   ///< TTotal: end-to-end delay (critical-path length)
  double cost = 0.0;  ///< CTotal: sum of billed module costs (+ transfer)
  dag::CpmResult cpm; ///< timing detail (est/eft/lst/lft/buffer/critical)
};

/// Evaluates MED and CTotal of `schedule` (Eqs. 8-9).
[[nodiscard]] Evaluation evaluate(const Instance& inst,
                                  const Schedule& schedule);

/// Just CTotal: cheaper than evaluate() when timing is not needed.
[[nodiscard]] double total_cost(const Instance& inst,
                                const Schedule& schedule);

/// Per-module execution durations under `schedule` (the node-weight
/// vector the CPM kernels take).
[[nodiscard]] std::vector<double> durations(const Instance& inst,
                                            const Schedule& schedule);

/// Renders "w1->VT2 w2->VT3 ..." for tables and logs (computing modules
/// only).
[[nodiscard]] std::string to_string(const Instance& inst,
                                    const Schedule& schedule);

/// Outcome of a budget-constrained scheduler run.
struct Result {
  Schedule schedule;
  Evaluation eval;
  std::size_t iterations = 0;  ///< rescheduling rounds performed
};

/// A budget-constrained solver's budget-independent work on one
/// instance, done once so that a budget sweep pays only the per-budget
/// part. answer(B) returns exactly what the solver returns at B --
/// schedule, iterations and evaluation, bit for bit -- and throws what
/// it throws. Immutable once built: answer() may run on many threads at
/// once. A sweep refers to its instance, which must outlive it.
class BudgetSweep {
public:
  BudgetSweep() = default;
  BudgetSweep(const BudgetSweep&) = delete;
  BudgetSweep& operator=(const BudgetSweep&) = delete;
  virtual ~BudgetSweep() = default;
  [[nodiscard]] virtual Result answer(double budget) const = 0;
};

}  // namespace medcc::sched
