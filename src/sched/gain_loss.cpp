#include "sched/gain_loss.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "dag/cpm_kernel.hpp"
#include "sched/bounds.hpp"
#include "sched/verify_hook.hpp"

namespace medcc::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double cost_eps(double budget) { return 1e-9 * std::max(1.0, budget); }

struct Move {
  NodeId module = 0;
  std::size_t type = 0;
  double weight = 0.0;
  double dt = 0.0;
  double dc = 0.0;
};

[[noreturn]] void throw_below_cmin(double budget, double cmin) {
  std::ostringstream os;
  os << "gain: budget " << budget << " below least-cost cost " << cmin;
  throw Infeasible(os.str());
}

/// Calls fn(j) for each candidate target type of task i at type `cur`:
/// every other type (AllPairs), or the single type with minimum execution
/// time, ties -> cheaper, when that is not `cur` (FastestType).
template <typename Fn>
void for_each_target(const Instance& inst, GainMoveSet move_set, NodeId i,
                     std::size_t cur, Fn&& fn) {
  if (move_set == GainMoveSet::AllPairs) {
    for (std::size_t j = 0; j < inst.type_count(); ++j)
      if (j != cur) fn(j);
    return;
  }
  std::size_t best = cur;
  for (std::size_t j = 0; j < inst.type_count(); ++j) {
    if (inst.time(i, j) < inst.time(i, best) ||
        // Exact tie-break on TE matrix entries (copied, not
        // accumulated).
        (inst.time(i, j) == inst.time(i, best) &&  // medcc-lint: allow(float-eq)
         inst.cost(i, j) < inst.cost(i, best)))
      best = j;
  }
  if (best != cur) fn(best);
}

}  // namespace

Gain3Sweep::Gain3Sweep(const Instance& inst, GainMoveSet move_set)
    : inst_(inst),
      start_(least_cost_schedule(inst)),
      cmin_(total_cost(inst, start_)) {
  // Static weights against the least-cost schedule.
  std::vector<Move> moves;
  for (NodeId i : inst.workflow().computing_modules()) {
    const std::size_t cur = start_.type_of[i];
    for_each_target(inst, move_set, i, cur, [&](std::size_t j) {
      const double dt = inst.time(i, cur) - inst.time(i, j);
      const double dc = inst.cost(i, j) - inst.cost(i, cur);
      if (dt <= 0.0) return;
      moves.push_back(Move{i, j, dc <= 0.0 ? kInf : dt / dc, dt, dc});
    });
  }
  std::stable_sort(moves.begin(), moves.end(),
                   [](const Move& a, const Move& b) {
                     if (a.weight != b.weight) return a.weight > b.weight;
                     return a.dt > b.dt;
                   });
  order_.reserve(moves.size());
  for (const Move& mv : moves)
    order_.push_back(Step{mv.module, mv.type, mv.dc});
}

Result Gain3Sweep::answer(double budget) const {
  if (budget < cmin_) throw_below_cmin(budget, cmin_);
  Result result;
  result.schedule = start_;
  double current_cost = cmin_;
  const double eps = cost_eps(budget);
  // Each task is reassigned at most once, in descending weight order.
  std::vector<bool> moved(inst_.module_count(), false);
  for (const Step& step : order_) {
    if (moved[step.module]) continue;
    if (step.dc > budget - current_cost + eps) continue;
    result.schedule.type_of[step.module] = step.type;
    current_cost += step.dc;
    moved[step.module] = true;
    ++result.iterations;
  }
  result.eval = evaluate(inst_, result.schedule);
  detail::check_schedule_invariants(inst_, result.schedule, result.eval,
                                    budget, detail::kUnconstrained, "gain");
  return result;
}

Result gain(const Instance& inst, double budget, GainLossVariant variant,
            GainMoveSet move_set) {
  if (variant == GainLossVariant::V3)
    return Gain3Sweep(inst, move_set).answer(budget);

  // Variants 1 and 2: fully dynamic greedy. V2 probes each candidate's
  // makespan with ws.weights holding the current schedule's durations.
  Result result;
  result.schedule = least_cost_schedule(inst);
  double current_cost = total_cost(inst, result.schedule);
  if (budget < current_cost) throw_below_cmin(budget, current_cost);
  const auto computing = inst.workflow().computing_modules();
  const double eps = cost_eps(budget);
  const dag::FlatDag& flat = inst.flat_dag();
  dag::CpmWorkspace ws;
  dag::makespan_into(flat, durations(inst, result.schedule), ws);
  for (;;) {
    const double left = budget - current_cost;
    if (left <= eps) break;
    const double med_cur =
        variant == GainLossVariant::V2 ? dag::makespan_into(flat, ws) : 0.0;

    bool found = false;
    Move best;
    for (NodeId i : computing) {
      const std::size_t cur = result.schedule.type_of[i];
      for_each_target(inst, move_set, i, cur, [&](std::size_t j) {
        const double dc = inst.cost(i, j) - inst.cost(i, cur);
        if (dc > left + eps) return;
        double dt;
        if (variant == GainLossVariant::V2) {
          ws.weights[i] = inst.time(i, j);
          dt = med_cur - dag::makespan_into(flat, ws);
          ws.weights[i] = inst.time(i, cur);
        } else {
          dt = inst.time(i, cur) - inst.time(i, j);
        }
        if (dt <= 0.0) return;
        const double w = dc <= 0.0 ? kInf : dt / dc;
        if (!found || w > best.weight ||
            (w == best.weight && dt > best.dt)) {
          found = true;
          best = Move{i, j, w, dt, dc};
        }
      });
    }
    if (!found) break;
    result.schedule.type_of[best.module] = best.type;
    ws.weights[best.module] = inst.time(best.module, best.type);
    current_cost += best.dc;
    ++result.iterations;
  }
  result.eval = evaluate(inst, result.schedule);
  detail::check_schedule_invariants(inst, result.schedule, result.eval, budget,
                                    detail::kUnconstrained, "gain");
  return result;
}

Result loss(const Instance& inst, double budget, GainLossVariant variant) {
  const double cmin = total_cost(inst, least_cost_schedule(inst));
  if (budget < cmin) {
    std::ostringstream os;
    os << "loss: budget " << budget << " below least-cost cost " << cmin;
    throw Infeasible(os.str());
  }

  Result result;
  result.schedule = fastest_schedule(inst);
  double current_cost = total_cost(inst, result.schedule);
  const auto computing = inst.workflow().computing_modules();
  const double eps = cost_eps(budget);
  // ws.weights holds the current schedule's durations; V2 probes each
  // candidate downgrade's makespan through it.
  const dag::FlatDag& flat = inst.flat_dag();
  dag::CpmWorkspace ws;
  dag::makespan_into(flat, durations(inst, result.schedule), ws);

  const auto over_budget = [&] { return current_cost > budget + eps; };

  if (variant == GainLossVariant::V3 && over_budget()) {
    std::vector<Move> moves;
    for (NodeId i : computing) {
      const std::size_t cur = result.schedule.type_of[i];
      for (std::size_t j = 0; j < inst.type_count(); ++j) {
        if (j == cur) continue;
        const double saving = inst.cost(i, cur) - inst.cost(i, j);
        if (saving <= 0.0) continue;
        const double loss_t = inst.time(i, j) - inst.time(i, cur);
        moves.push_back(
            Move{i, j, loss_t <= 0.0 ? -kInf : loss_t / saving, loss_t,
                 -saving});
      }
    }
    std::stable_sort(moves.begin(), moves.end(),
                     [](const Move& a, const Move& b) {
                       if (a.weight != b.weight) return a.weight < b.weight;
                       return a.dc < b.dc;  // bigger saving first on ties
                     });
    std::vector<bool> moved(inst.module_count(), false);
    for (const Move& mv : moves) {
      if (!over_budget()) break;
      if (moved[mv.module]) continue;
      result.schedule.type_of[mv.module] = mv.type;
      ws.weights[mv.module] = inst.time(mv.module, mv.type);
      current_cost += mv.dc;
      moved[mv.module] = true;
      ++result.iterations;
    }
    // The single static pass can leave the schedule above budget (each task
    // moved at most once, to one target); finish with dynamic downgrades.
  }

  while (over_budget()) {
    const double med_cur =
        variant == GainLossVariant::V2 ? dag::makespan_into(flat, ws) : 0.0;
    bool found = false;
    Move best;
    for (NodeId i : computing) {
      const std::size_t cur = result.schedule.type_of[i];
      for (std::size_t j = 0; j < inst.type_count(); ++j) {
        if (j == cur) continue;
        const double saving = inst.cost(i, cur) - inst.cost(i, j);
        if (saving <= 0.0) continue;
        double loss_t;
        if (variant == GainLossVariant::V2) {
          ws.weights[i] = inst.time(i, j);
          loss_t = dag::makespan_into(flat, ws) - med_cur;
          ws.weights[i] = inst.time(i, cur);
        } else {
          loss_t = inst.time(i, j) - inst.time(i, cur);
        }
        const double w = loss_t <= 0.0 ? -kInf : loss_t / saving;
        if (!found || w < best.weight ||
            (w == best.weight && saving > -best.dc)) {
          found = true;
          best = Move{i, j, w, loss_t, -saving};
        }
      }
    }
    MEDCC_ENSURES(found);  // guaranteed while cost > Cmin
    result.schedule.type_of[best.module] = best.type;
    ws.weights[best.module] = inst.time(best.module, best.type);
    current_cost += best.dc;
    ++result.iterations;
  }

  result.eval = evaluate(inst, result.schedule);
  MEDCC_ENSURES(result.eval.cost <= budget + 1e-6 * std::max(1.0, budget));
  detail::check_schedule_invariants(inst, result.schedule, result.eval, budget,
                                    detail::kUnconstrained, "loss");
  return result;
}

}  // namespace medcc::sched
