#include "sched/pcp.hpp"

#include <algorithm>
#include <limits>

#include "dag/cpm_kernel.hpp"
#include "sched/bounds.hpp"
#include "sched/verify_hook.hpp"

namespace medcc::sched {
namespace {

struct PcpState {
  const Instance* inst = nullptr;
  double deadline = 0.0;
  Schedule schedule;
  std::vector<bool> assigned;  ///< path processing done for this module
  dag::CpmWorkspace ws;        ///< weights: the schedule's durations
  std::size_t paths = 0;

  /// Builds the partial critical path of unassigned modules ending just
  /// before `anchor`: repeatedly hop to the unassigned predecessor with
  /// the latest earliest-finish time. Returns front-to-back order.
  [[nodiscard]] std::vector<NodeId> partial_critical_path(NodeId anchor) {
    dag::makespan_into(inst->flat_dag(), ws);
    std::vector<NodeId> path;
    NodeId cursor = anchor;
    for (;;) {
      NodeId critical_parent = cursor;
      double latest = -1.0;
      for (NodeId p : inst->workflow().graph().predecessors(cursor)) {
        if (assigned[p]) continue;
        if (ws.eft[p] > latest) {
          latest = ws.eft[p];
          critical_parent = p;
        }
      }
      if (critical_parent == cursor) break;
      path.push_back(critical_parent);
      cursor = critical_parent;
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  /// Cheapens the path as a unit: greedy downgrades (smallest time lost
  /// per dollar saved first) while the whole workflow still meets the
  /// deadline.
  void cheapen_path(const std::vector<NodeId>& path) {
    for (;;) {
      bool found = false;
      NodeId best_module = 0;
      std::size_t best_type = 0;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (NodeId i : path) {
        const std::size_t cur = schedule.type_of[i];
        for (std::size_t j = 0; j < inst->type_count(); ++j) {
          if (j == cur) continue;
          const double saving = inst->cost(i, cur) - inst->cost(i, j);
          if (saving <= 0.0) continue;
          const double loss = inst->time(i, j) - inst->time(i, cur);
          const double ratio =
              loss <= 0.0 ? -std::numeric_limits<double>::infinity()
                          : loss / saving;
          if (ratio >= best_ratio) continue;
          // Deadline feasibility of this single downgrade.
          ws.weights[i] = inst->time(i, j);
          const bool feasible =
              dag::makespan_into(inst->flat_dag(), ws) <= deadline + 1e-9;
          ws.weights[i] = inst->time(i, cur);
          if (!feasible) continue;
          found = true;
          best_ratio = ratio;
          best_module = i;
          best_type = j;
        }
      }
      if (!found) return;
      schedule.type_of[best_module] = best_type;
      ws.weights[best_module] = inst->time(best_module, best_type);
    }
  }

  void assign_parents(NodeId anchor) {
    for (;;) {
      const auto path = partial_critical_path(anchor);
      if (path.empty()) return;
      ++paths;
      cheapen_path(path);
      for (NodeId i : path) assigned[i] = true;
      // Recurse towards the entry through every member of the path.
      for (NodeId i : path) assign_parents(i);
    }
  }
};

}  // namespace

PcpResult pcp_deadline(const Instance& inst, double deadline) {
  PcpState state;
  state.inst = &inst;
  state.deadline = deadline;
  state.schedule = fastest_schedule(inst);
  if (dag::makespan_into(inst.flat_dag(), durations(inst, state.schedule),
                         state.ws) > deadline + 1e-9)
    throw Infeasible("pcp_deadline: deadline below the fastest MED");

  state.assigned.assign(inst.module_count(), false);
  for (NodeId i = 0; i < inst.module_count(); ++i)
    if (inst.workflow().module(i).is_fixed()) state.assigned[i] = true;

  state.assign_parents(inst.workflow().exit());
  // Isolated-from-exit corner: any module the walk never reached (cannot
  // happen in a valid workflow, but keep the invariant explicit).
  for (NodeId i : inst.workflow().computing_modules())
    if (!state.assigned[i]) state.assign_parents(i);

  PcpResult result;
  result.schedule = std::move(state.schedule);
  result.eval = evaluate(inst, result.schedule);
  result.paths = state.paths;
  MEDCC_ENSURES(result.eval.med <= deadline + 1e-9);
  detail::check_schedule_invariants(inst, result.schedule, result.eval,
                                    detail::kUnconstrained, deadline,
                                    "pcp_deadline");
  return result;
}

}  // namespace medcc::sched
