#include "sched/exhaustive.hpp"

#include <algorithm>
#include <limits>

#include "dag/cpm_kernel.hpp"
#include "sched/bounds.hpp"
#include "sched/verify_hook.hpp"

namespace medcc::sched {
namespace {

struct SearchState {
  const Instance* inst = nullptr;
  const ExhaustiveOptions* options = nullptr;
  std::vector<NodeId> order;           ///< computing modules, search order
  std::vector<double> min_cost_suffix; ///< sum of min costs from depth k on
  dag::CpmWorkspace ws;                ///< weights: duration per module
  Schedule current;
  Schedule best;
  double best_med = std::numeric_limits<double>::infinity();
  double best_cost = std::numeric_limits<double>::infinity();
  double budget = 0.0;
  std::uint64_t nodes = 0;

  void dfs(std::size_t depth, double cost_so_far) {
    if (++nodes > options->max_nodes)
      throw Error("exhaustive_optimal: node budget exceeded");
    if (depth == order.size()) {
      const double med = dag::makespan_into(inst->flat_dag(), ws);
      if (med < best_med - 1e-12 ||
          (med <= best_med + 1e-12 && cost_so_far < best_cost)) {
        best_med = med;
        best_cost = cost_so_far;
        best = current;
      }
      return;
    }
    // Optimistic makespan bound: unassigned modules at their fastest type
    // (their weight vector entries are pre-seeded with the fastest time).
    const double optimistic = dag::makespan_into(inst->flat_dag(), ws);
    if (optimistic >= best_med - 1e-12 &&
        // keep exploring equal-MED branches only if they might be cheaper
        !(optimistic <= best_med + 1e-12 &&
          cost_so_far + min_cost_suffix[depth] < best_cost))
      return;

    const NodeId i = order[depth];
    const double saved_weight = ws.weights[i];
    for (std::size_t j = 0; j < inst->type_count(); ++j) {
      const double c = cost_so_far + inst->cost(i, j);
      if (c + min_cost_suffix[depth + 1] > budget + 1e-9) continue;
      current.type_of[i] = j;
      ws.weights[i] = inst->time(i, j);
      dfs(depth + 1, c);
    }
    ws.weights[i] = saved_weight;
  }
};

}  // namespace

ExhaustiveResult exhaustive_optimal(const Instance& inst, double budget,
                                    const ExhaustiveOptions& options) {
  const auto least = least_cost_schedule(inst);
  const double cmin = total_cost(inst, least);
  if (budget < cmin)
    throw Infeasible("exhaustive_optimal: budget below least-cost cost");

  SearchState state;
  state.inst = &inst;
  state.options = &options;
  state.order = inst.workflow().computing_modules();
  state.budget = budget;
  state.current.type_of.assign(inst.module_count(), 0);
  state.best = least;

  // Search the largest-workload modules first: they decide the makespan,
  // so bound pruning kicks in early.
  std::stable_sort(state.order.begin(), state.order.end(),
                   [&](NodeId a, NodeId b) {
                     return inst.time(a, inst.catalog().fastest_index()) >
                            inst.time(b, inst.catalog().fastest_index());
                   });

  // Suffix sums of per-module minimum costs for the cost bound.
  state.min_cost_suffix.assign(state.order.size() + 1, 0.0);
  for (std::size_t k = state.order.size(); k-- > 0;) {
    double mc = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < inst.type_count(); ++j)
      mc = std::min(mc, inst.cost(state.order[k], j));
    state.min_cost_suffix[k] = state.min_cost_suffix[k + 1] + mc;
  }

  // Seed weights with each module's fastest time (optimistic bound) --
  // fixed modules keep their fixed duration.
  state.ws.prepare(inst.module_count());
  for (NodeId v = 0; v < inst.module_count(); ++v) {
    double fastest = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < inst.type_count(); ++j)
      fastest = std::min(fastest, inst.time(v, j));
    state.ws.weights[v] = fastest;
  }

  // Incumbent: the least-cost schedule is always feasible.
  {
    const auto eval = evaluate(inst, least);
    state.best_med = eval.med;
    state.best_cost = eval.cost;
  }

  state.dfs(0, inst.total_transfer_cost());

  ExhaustiveResult result;
  result.schedule = state.best;
  result.eval = evaluate(inst, result.schedule);
  result.nodes_visited = state.nodes;
  detail::check_schedule_invariants(inst, result.schedule, result.eval, budget,
                                    detail::kUnconstrained,
                                    "exhaustive_optimal");
  return result;
}

}  // namespace medcc::sched
