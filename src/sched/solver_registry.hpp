// Named dispatch over the budget-constrained MED-CC schedulers.
//
// Every solver that maps (Instance, budget) -> Result is reachable behind
// one string id, so callers that receive the solver choice as data -- the
// scheduling service, the CLI, config files -- need no compile-time
// knowledge of the individual algorithm headers. The built-in table covers
// Critical-Greedy, the GAIN/LOSS families, and the two metaheuristics; all
// entries are deterministic (the GA and the annealer run with their
// default fixed seeds).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sched/schedule.hpp"

namespace medcc::sched {

/// A budget-constrained solver: throws Infeasible when budget < Cmin.
using SolverFn = std::function<Result(const Instance&, double budget)>;

/// Builds a solver's BudgetSweep on one instance, whose answers equal the
/// solver's at every budget. A plain function pointer, so that its
/// address names the sweep: the service keeps at most one sweep per
/// (interned instance, factory).
using SweepFactory = std::unique_ptr<const BudgetSweep> (*)(const Instance&);

/// One registered solver and, optionally, its sweep.
struct SolverEntry {
  SolverFn solve;
  SweepFactory sweep = nullptr;
};

/// A string-keyed table of budget-constrained solvers.
class SolverRegistry {
public:
  /// The immutable process-wide registry of built-in solvers:
  ///   annealing, cg, gain1, gain2, gain3, genetic, loss1, loss2, loss3.
  /// cg, gain2, gain3 and loss2 carry sweeps (CgSweep, Gain2Sweep,
  /// Gain3Sweep, Loss2Sweep).
  [[nodiscard]] static const SolverRegistry& built_in();

  /// The entry registered under `name`, or nullptr.
  [[nodiscard]] const SolverEntry* entry(std::string_view name) const;
  /// The solver registered under `name`, or nullptr. Without its sweep:
  /// re-registering a `find()` result drops the sweep.
  [[nodiscard]] const SolverFn* find(std::string_view name) const {
    const SolverEntry* e = entry(name);
    return e == nullptr ? nullptr : &e->solve;
  }
  [[nodiscard]] bool contains(std::string_view name) const {
    return find(name) != nullptr;
  }

  /// Registered ids, ascending.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return solvers_.size(); }

  /// Registers (or replaces) `name`, with its sweep or none. Replacing
  /// an entry replaces its sweep too. Callers composing a custom registry
  /// typically copy built_in() first and add entries on top.
  void register_solver(std::string name, SolverFn fn,
                       SweepFactory sweep = nullptr);

private:
  std::map<std::string, SolverEntry, std::less<>> solvers_;
};

}  // namespace medcc::sched
