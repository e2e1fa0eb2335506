#include "sched/critical_greedy.hpp"

#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "dag/cpm_kernel.hpp"
#include "sched/bounds.hpp"
#include "sched/verify_hook.hpp"

namespace medcc::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Small epsilon so fp noise in accumulated dC never rejects a reschedule
/// the exact arithmetic would allow.
double cost_eps(double budget) { return 1e-9 * std::max(1.0, budget); }

[[noreturn]] void throw_below_cmin(double budget, double cmin) {
  std::ostringstream os;
  os << "critical_greedy: budget " << budget
     << " below least-cost schedule cost " << cmin;
  throw Infeasible(os.str());
}

/// Alg. 1's main loop from `result.schedule` (cost `cost`): one CPM pass
/// to start, then one per applied move. With a budget it stops once the
/// budget left is within eps or no affordable move improves (lines
/// 14-15); unbounded (nullopt) it stops only when no critical move
/// improves. `moves` (optional) records each reassignment.
void greedy_loop(const Instance& inst, const CriticalGreedyOptions& options,
                 std::optional<double> budget, Result& result, double& cost,
                 std::vector<CgMove>* moves) {
  const dag::FlatDag& flat = inst.flat_dag();
  const auto computing = inst.workflow().computing_modules();
  const double eps = budget ? cost_eps(*budget) : 0.0;
  Schedule& schedule = result.schedule;

  // ws holds the current schedule's durations and CPM state; each applied
  // upgrade rewrites one weight and reruns the full pass.
  dag::CpmWorkspace ws;
  dag::cpm_into(flat, durations(inst, schedule), ws);

  for (;;) {
    double max_dc = kInf;
    if (budget) {
      const double cost_left = *budget - cost;
      if (cost_left <= eps) break;
      max_dc = cost_left + eps;
    }

    // Candidate scan (Alg. 1, lines 11-13).
    bool found = false;
    NodeId best_module = 0;
    std::size_t best_type = 0;
    double best_dt = 0.0;
    double best_dc = 0.0;
    for (NodeId i : computing) {
      if (!options.all_modules && !ws.critical[i]) continue;
      const std::size_t cur = schedule.type_of[i];
      const double t_old = inst.time(i, cur);
      const double c_old = inst.cost(i, cur);
      for (std::size_t j = 0; j < inst.type_count(); ++j) {
        if (j == cur) continue;
        const double dt = t_old - inst.time(i, j);   // Eq. 10
        const double dc = inst.cost(i, j) - c_old;   // Eq. 11
        if (dt <= 0.0) continue;                     // must strictly improve
        if (dc > max_dc) continue;                   // must be affordable
        bool better;
        if (options.ratio_criterion) {
          // Rank by time decrease per unit cost; free upgrades (dc <= 0)
          // dominate everything.
          const double ratio_new = dc <= 0.0 ? kInf : dt / dc;
          const double ratio_best =
              !found ? -1.0 : (best_dc <= 0.0 ? kInf : best_dt / best_dc);
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

    const std::size_t from = schedule.type_of[best_module];
    schedule.type_of[best_module] = best_type;
    ws.weights[best_module] = inst.time(best_module, best_type);
    cost += best_dc;
    ++result.iterations;
    dag::cpm_into(flat, ws);
    if (moves != nullptr) {
      moves->push_back(CgMove{best_module, from, best_type, best_dt, best_dc,
                              ws.makespan, cost});
    }
  }
}

/// Evaluates and verifies the final schedule of a run under `budget`.
Result finish(const Instance& inst, Result&& result, double budget) {
  result.eval = evaluate(inst, result.schedule);
  MEDCC_ENSURES(result.eval.cost <= budget + 1e-6 * std::max(1.0, budget));
  detail::check_schedule_invariants(inst, result.schedule, result.eval, budget,
                                    detail::kUnconstrained, "critical_greedy");
  return std::move(result);
}

Result run_critical_greedy(const Instance& inst, double budget,
                           const CriticalGreedyOptions& options,
                           std::vector<CgMove>* moves) {
  Result result;
  result.schedule = least_cost_schedule(inst);
  double cost = total_cost(inst, result.schedule);
  if (budget < cost) throw_below_cmin(budget, cost);
  greedy_loop(inst, options, budget, result, cost, moves);
  return finish(inst, std::move(result), budget);
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

CgSweep::CgSweep(const Instance& inst)
    : inst_(inst),
      start_(least_cost_schedule(inst)),
      cmin_(total_cost(inst, start_)) {
  Result run;
  run.schedule = start_;
  double cost = cmin_;
  greedy_loop(inst, {}, std::nullopt, run, cost, &moves_);
}

Result CgSweep::answer(double budget) const {
  if (budget < cmin_) throw_below_cmin(budget, cmin_);
  Result result;
  result.schedule = start_;
  double cost = cmin_;
  const double eps = cost_eps(budget);
  for (const CgMove& move : moves_) {
    const double cost_left = budget - cost;
    if (cost_left <= eps) break;
    if (move.dc > cost_left + eps) {
      // The first move B cannot afford: B's own scan takes over here.
      greedy_loop(inst_, {}, budget, result, cost, nullptr);
      break;
    }
    result.schedule.type_of[move.module] = move.to_type;
    cost += move.dc;
    ++result.iterations;
  }
  // A replay that ran off the trajectory's end stops too: no critical
  // move improves there, affordable or not.
  return finish(inst_, std::move(result), budget);
}

}  // namespace medcc::sched
