#include "sched/critical_greedy.hpp"

#include <limits>
#include <sstream>

#include "dag/cpm_kernel.hpp"
#include "sched/bounds.hpp"
#include "sched/verify_hook.hpp"

namespace medcc::sched {
namespace {

/// Shared implementation; `moves` (optional) records each reassignment.
Result run_critical_greedy(const Instance& inst, double budget,
                           const CriticalGreedyOptions& options,
                           std::vector<CgMove>* moves) {
  Result result;
  result.schedule = least_cost_schedule(inst);
  double current_cost = total_cost(inst, result.schedule);
  const double cmin = current_cost;
  if (budget < cmin) {
    std::ostringstream os;
    os << "critical_greedy: budget " << budget
       << " below least-cost schedule cost " << cmin;
    throw Infeasible(os.str());
  }

  const dag::FlatDag& flat = inst.flat_dag();
  const auto computing = inst.workflow().computing_modules();

  // ws holds the current schedule's durations and CPM state; each applied
  // upgrade rewrites one weight and reruns the full pass.
  dag::CpmWorkspace ws;
  dag::cpm_into(flat, durations(inst, result.schedule), ws);

  // Small epsilon so fp noise in accumulated dC never rejects a reschedule
  // the exact arithmetic would allow.
  const double kCostEps = 1e-9 * std::max(1.0, budget);

  for (;;) {
    const double cost_left = budget - current_cost;
    if (cost_left <= kCostEps) break;

    // Candidate scan (Alg. 1, lines 11-13).
    bool found = false;
    NodeId best_module = 0;
    std::size_t best_type = 0;
    double best_dt = 0.0;
    double best_dc = 0.0;
    for (NodeId i : computing) {
      if (!options.all_modules && !ws.critical[i]) continue;
      const std::size_t cur = result.schedule.type_of[i];
      const double t_old = inst.time(i, cur);
      const double c_old = inst.cost(i, cur);
      for (std::size_t j = 0; j < inst.type_count(); ++j) {
        if (j == cur) continue;
        const double dt = t_old - inst.time(i, j);   // Eq. 10
        const double dc = inst.cost(i, j) - c_old;   // Eq. 11
        if (dt <= 0.0) continue;                     // must strictly improve
        if (dc > cost_left + kCostEps) continue;     // must be affordable
        bool better;
        if (options.ratio_criterion) {
          // Rank by time decrease per unit cost; free upgrades (dc <= 0)
          // dominate everything.
          const double ratio_new = dc <= 0.0 ? std::numeric_limits<double>::infinity()
                                             : dt / dc;
          const double ratio_best =
              !found ? -1.0
                     : (best_dc <= 0.0 ? std::numeric_limits<double>::infinity()
                                       : best_dt / best_dc);
          better = !found || ratio_new > ratio_best ||
                   (ratio_new == ratio_best && dt > best_dt);
        } else {
          // Alg. 1: largest dT; ties -> minimum dC.
          better = !found || dt > best_dt ||
                   (dt == best_dt && dc < best_dc);
        }
        if (better) {
          found = true;
          best_module = i;
          best_type = j;
          best_dt = dt;
          best_dc = dc;
        }
      }
    }
    if (!found) break;  // Alg. 1, lines 14-15

    const std::size_t from = result.schedule.type_of[best_module];
    result.schedule.type_of[best_module] = best_type;
    ws.weights[best_module] = inst.time(best_module, best_type);
    current_cost += best_dc;
    ++result.iterations;
    dag::cpm_into(flat, ws);
    if (moves != nullptr) {
      moves->push_back(CgMove{best_module, from, best_type, best_dt, best_dc,
                              ws.makespan, current_cost});
    }
  }

  result.eval = evaluate(inst, result.schedule);
  MEDCC_ENSURES(result.eval.cost <= budget + 1e-6 * std::max(1.0, budget));
  detail::check_schedule_invariants(inst, result.schedule, result.eval, budget,
                                    detail::kUnconstrained, "critical_greedy");
  return result;
}

}  // namespace

Result critical_greedy(const Instance& inst, double budget,
                       const CriticalGreedyOptions& options) {
  return run_critical_greedy(inst, budget, options, nullptr);
}

CgTrace critical_greedy_trace(const Instance& inst, double budget,
                              const CriticalGreedyOptions& options) {
  CgTrace trace;
  trace.result =
      run_critical_greedy(inst, budget, options, &trace.moves);
  return trace;
}

}  // namespace medcc::sched
