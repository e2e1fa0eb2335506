#include "sched/deadline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "dag/cpm_kernel.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/verify_hook.hpp"

namespace medcc::sched {

DeadlineResult deadline_loss(const Instance& inst, double deadline) {
  DeadlineResult result;
  result.schedule = fastest_schedule(inst);
  Evaluation eval = evaluate(inst, result.schedule);
  if (eval.med > deadline + 1e-9) {
    std::ostringstream os;
    os << "deadline_loss: deadline " << deadline
       << " below the fastest achievable MED " << eval.med;
    throw Infeasible(os.str());
  }

  const auto computing = inst.workflow().computing_modules();
  const dag::FlatDag& flat = inst.flat_dag();
  dag::CpmWorkspace ws;  // weights: the current schedule's durations
  dag::makespan_into(flat, durations(inst, result.schedule), ws);

  for (;;) {
    bool found = false;
    NodeId best_module = 0;
    std::size_t best_type = 0;
    double best_saving = 0.0;
    double best_med = 0.0;
    for (NodeId i : computing) {
      const std::size_t cur = result.schedule.type_of[i];
      for (std::size_t j = 0; j < inst.type_count(); ++j) {
        if (j == cur) continue;
        const double saving = inst.cost(i, cur) - inst.cost(i, j);
        if (saving <= 0.0) continue;
        // Slack pre-check: a downgrade that stretches i beyond its total
        // float cannot meet the deadline; this avoids most CPM recomputes.
        const double stretch = inst.time(i, j) - inst.time(i, cur);
        const double slack =
            (deadline - eval.med) + eval.cpm.buffer[i];
        if (stretch > slack + 1e-12) continue;
        ws.weights[i] = inst.time(i, j);
        const double med = dag::makespan_into(flat, ws);
        ws.weights[i] = inst.time(i, cur);
        if (med > deadline + 1e-9) continue;
        if (!found || saving > best_saving ||
            // Exact tie-break on copied cost deltas.
            (saving == best_saving && med < best_med)) {  // medcc-lint: allow(float-eq)
          found = true;
          best_module = i;
          best_type = j;
          best_saving = saving;
          best_med = med;
        }
      }
    }
    if (!found) break;
    result.schedule.type_of[best_module] = best_type;
    ws.weights[best_module] = inst.time(best_module, best_type);
    eval = evaluate(inst, result.schedule);
    ++result.iterations;
  }

  result.eval = std::move(eval);
  MEDCC_ENSURES(result.eval.med <= deadline + 1e-9);
  detail::check_schedule_invariants(inst, result.schedule, result.eval,
                                    detail::kUnconstrained, deadline,
                                    "deadline_loss");
  return result;
}

namespace {

struct DeadlineSearch {
  const Instance* inst = nullptr;
  double deadline = 0.0;
  std::uint64_t max_nodes = 0;
  std::uint64_t nodes = 0;
  std::vector<NodeId> order;
  std::vector<double> min_cost_suffix;
  dag::CpmWorkspace ws;  ///< weights: unassigned seeded with fastest times
  Schedule current;
  Schedule best;
  double best_cost = std::numeric_limits<double>::infinity();
  double best_med = std::numeric_limits<double>::infinity();

  void dfs(std::size_t depth, double cost_so_far) {
    if (++nodes > max_nodes)
      throw Error("min_cost_under_deadline_exact: node budget exceeded");
    // Cost bound.
    if (cost_so_far + min_cost_suffix[depth] > best_cost + 1e-12) return;
    // Deadline bound: optimistic makespan with the unassigned suffix at
    // its fastest must already meet the deadline.
    const double optimistic = dag::makespan_into(inst->flat_dag(), ws);
    if (optimistic > deadline + 1e-9) return;
    if (depth == order.size()) {
      const double cost = cost_so_far;
      if (cost < best_cost - 1e-12 ||
          (cost <= best_cost + 1e-12 && optimistic < best_med)) {
        best_cost = cost;
        best_med = optimistic;
        best = current;
      }
      return;
    }
    const NodeId i = order[depth];
    const double saved = ws.weights[i];
    for (std::size_t j = 0; j < inst->type_count(); ++j) {
      current.type_of[i] = j;
      ws.weights[i] = inst->time(i, j);
      dfs(depth + 1, cost_so_far + inst->cost(i, j));
    }
    ws.weights[i] = saved;
  }
};

}  // namespace

DeadlineResult min_cost_under_deadline_exact(const Instance& inst,
                                             double deadline,
                                             std::uint64_t max_nodes) {
  const auto fastest = fastest_schedule(inst);
  const auto fastest_eval = evaluate(inst, fastest);
  if (fastest_eval.med > deadline + 1e-9)
    throw Infeasible(
        "min_cost_under_deadline_exact: deadline below fastest MED");

  DeadlineSearch search;
  search.inst = &inst;
  search.deadline = deadline;
  search.max_nodes = max_nodes;
  search.order = inst.workflow().computing_modules();
  // Big modules first: the deadline bound prunes early.
  std::stable_sort(search.order.begin(), search.order.end(),
                   [&](NodeId a, NodeId b) {
                     return inst.time(a, inst.catalog().fastest_index()) >
                            inst.time(b, inst.catalog().fastest_index());
                   });
  search.min_cost_suffix.assign(search.order.size() + 1, 0.0);
  for (std::size_t k = search.order.size(); k-- > 0;) {
    double mc = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < inst.type_count(); ++j)
      mc = std::min(mc, inst.cost(search.order[k], j));
    search.min_cost_suffix[k] = search.min_cost_suffix[k + 1] + mc;
  }
  dag::makespan_into(inst.flat_dag(), durations(inst, fastest), search.ws);
  search.current.type_of.assign(inst.module_count(), 0);
  search.best = fastest;
  search.best_cost = fastest_eval.cost;
  search.best_med = fastest_eval.med;
  search.dfs(0, inst.total_transfer_cost());

  DeadlineResult result;
  result.schedule = search.best;
  result.eval = evaluate(inst, result.schedule);
  detail::check_schedule_invariants(inst, result.schedule, result.eval,
                                    detail::kUnconstrained, deadline,
                                    "min_cost_under_deadline_exact");
  return result;
}

double budget_for_deadline(const Instance& inst, double deadline,
                           std::size_t levels) {
  const auto bounds = cost_bounds(inst);
  double best = std::numeric_limits<double>::infinity();
  for (double budget : budget_levels(bounds, levels)) {
    try {
      const auto r = critical_greedy(inst, budget);
      if (r.eval.med <= deadline + 1e-9) best = std::min(best, r.eval.cost);
    } catch (const Infeasible&) {
      // degenerate bounds; continue
    }
  }
  // The least-cost schedule itself may already make the deadline.
  const auto least = evaluate(inst, least_cost_schedule(inst));
  if (least.med <= deadline + 1e-9) best = std::min(best, least.cost);
  if (!std::isfinite(best))
    throw Infeasible("budget_for_deadline: no swept budget meets deadline");
  return best;
}

}  // namespace medcc::sched
