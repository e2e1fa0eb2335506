#include "sched/reuse_aware.hpp"

#include <sstream>

#include "dag/cpm_kernel.hpp"
#include "sched/bounds.hpp"
#include "sched/verify_hook.hpp"
#include "sched/vm_reuse.hpp"

namespace medcc::sched {

ReuseAwareResult critical_greedy_reuse_aware(const Instance& inst,
                                             double budget) {
  ReuseAwareResult result;
  result.schedule = least_cost_schedule(inst);
  double billed = plan_vm_reuse(inst, result.schedule).billed_cost_uptime;
  if (budget < billed) {
    std::ostringstream os;
    os << "critical_greedy_reuse_aware: budget " << budget
       << " below the least-cost schedule's billed cost " << billed;
    throw Infeasible(os.str());
  }

  const dag::FlatDag& flat = inst.flat_dag();
  const auto computing = inst.workflow().computing_modules();
  const double eps = 1e-9 * std::max(1.0, budget);

  // ws holds the current schedule's durations and CPM state; each applied
  // upgrade rewrites one weight and reruns the full pass.
  dag::CpmWorkspace ws;
  dag::cpm_into(flat, durations(inst, result.schedule), ws);

  for (;;) {
    const double left = budget - billed;
    if (left <= eps) break;

    bool found = false;
    NodeId best_module = 0;
    std::size_t best_type = 0;
    double best_dt = 0.0;
    double best_dc = 0.0;
    double best_billed = 0.0;
    for (NodeId i : computing) {
      if (!ws.critical[i]) continue;
      const std::size_t cur = result.schedule.type_of[i];
      const double t_old = inst.time(i, cur);
      for (std::size_t j = 0; j < inst.type_count(); ++j) {
        if (j == cur) continue;
        const double dt = t_old - inst.time(i, j);
        if (dt <= 0.0) continue;
        // Only an at-least-as-good dt can win; skip the costly reuse
        // replanning for strictly worse candidates.
        if (found && dt < best_dt) continue;
        result.schedule.type_of[i] = j;
        const double cand_billed =
            plan_vm_reuse(inst, result.schedule).billed_cost_uptime;
        result.schedule.type_of[i] = cur;
        const double dc = cand_billed - billed;
        if (dc > left + eps) continue;
        if (!found || dt > best_dt || (dt == best_dt && dc < best_dc)) {
          found = true;
          best_module = i;
          best_type = j;
          best_dt = dt;
          best_dc = dc;
          best_billed = cand_billed;
        }
      }
    }
    if (!found) break;
    result.schedule.type_of[best_module] = best_type;
    ws.weights[best_module] = inst.time(best_module, best_type);
    billed = best_billed;
    ++result.iterations;
    dag::cpm_into(flat, ws);
  }

  result.eval = evaluate(inst, result.schedule);
  result.billed_cost = billed;
  MEDCC_ENSURES(result.billed_cost <= budget + 1e-6 * std::max(1.0, budget));
  // The analytic cost may exceed the budget by design (feasibility is with
  // respect to billed-with-reuse cost), so only structural/timing/cost
  // invariants are checked here.
  detail::check_schedule_invariants(inst, result.schedule, result.eval,
                                    detail::kUnconstrained,
                                    detail::kUnconstrained,
                                    "critical_greedy_reuse_aware");
  return result;
}

}  // namespace medcc::sched
