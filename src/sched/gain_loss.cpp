#include "sched/gain_loss.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
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

// V2 weights come from the makespan change M' - M of each candidate move.
// A round runs one cpm_into (ws.weights holds the current durations),
// bounds every candidate's change from est/lft, and runs a forward pass
// only for the candidates whose bounds can reach the best weight.
//
// Why that is exact. Weights are non-negative (FlatDag validates arcs)
// and fl(x + c) is monotone in x, so the forward pass's eft[v] is exactly
// the maximum, over source->v paths, of the float chain along the path.
// With module i at weight w the makespan is therefore max(A, C_i(w)),
// where A is the best chain avoiding i, C_i(w) the best through it, and
// M = max(A, C_i(w_i)). In reals C_i(w) - M = est_i + w - lft_i =: d.
// est_i, lft_i, M and a probed chain each sum at most 2V - 1 non-negative
// terms (or subtract them from M), so the probed C_i(w) - M is within
// 8V * 2^-53 * S of d, S = max(1, M, M + max(0, d)) -- scaled by the new
// makespan too, which a very slow type can make far exceed M. For graphs
// under 10^6 nodes that is below delta = kCpmSlackTolerance * S.

/// A V2 candidate move and bounds on its weight.
struct Candidate {
  NodeId module = 0;
  std::size_t type = 0;
  double dc = 0.0;
  double lo = -kInf;
  double hi = kInf;
  std::size_t pos = 0;  ///< position in the candidate scan
};

/// [d - delta, d + delta], which holds C_i(w) - M, from a cpm_into pass.
std::pair<double, double> change_bounds(const dag::CpmWorkspace& ws, NodeId i,
                                        double w) {
  const double d = ws.est[i] + w - ws.lft[i];
  const double delta =
      dag::kCpmSlackTolerance *
      std::max({1.0, ws.makespan, ws.makespan + std::max(0.0, d)});
  return {d - delta, d + delta};
}

/// The makespan with module i at weight w; ws.weights is restored.
double probe(const dag::FlatDag& flat, dag::CpmWorkspace& ws, NodeId i,
             double w) {
  const double now = std::exchange(ws.weights[i], w);
  const double med = dag::makespan_into(flat, ws);
  ws.weights[i] = now;
  return med;
}

/// GAIN2's move: the largest dt/dc (inf when dc <= 0) over upgrades with
/// dc <= max_dc and dt = M - M' > 0; ties -> larger dt, then the earlier
/// move. A module with C_i(w_i) - M certainly below 0 lies on no critical
/// chain (A = M), so speeding it up leaves dt = 0 exactly, as does a type
/// that is not faster. Otherwise dt <= fl(M - C_i(w')) <= -lo bounds the
/// weight; candidates are probed in descending bound until the bound
/// falls strictly below the best weight.
std::optional<Move> best_gain2(const Instance& inst, GainMoveSet move_set,
                               const Schedule& schedule,
                               std::span<const NodeId> computing,
                               double max_dc, const dag::FlatDag& flat,
                               dag::CpmWorkspace& ws,
                               std::vector<Candidate>& cands) {
  dag::cpm_into(flat, ws);
  const double med_cur = ws.makespan;
  cands.clear();
  for (NodeId i : computing) {
    const double now = ws.weights[i];
    if (change_bounds(ws, i, now).second < 0.0) continue;
    const std::size_t cur = schedule.type_of[i];
    for_each_target(inst, move_set, i, cur, [&](std::size_t j) {
      const double dc = inst.cost(i, j) - inst.cost(i, cur);
      if (dc > max_dc || inst.time(i, j) >= now) return;
      const double dt_hi = -change_bounds(ws, i, inst.time(i, j)).first;
      cands.push_back(Candidate{i, j, dc, -kInf,
                                dc <= 0.0 ? kInf : dt_hi / dc, cands.size()});
    });
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) { return a.hi > b.hi; });
  std::optional<Move> best;
  std::size_t best_pos = 0;
  for (const Candidate& c : cands) {
    if (best && c.hi < best->weight) break;
    const double dt =
        med_cur - probe(flat, ws, c.module, inst.time(c.module, c.type));
    if (dt <= 0.0) continue;
    const double w = c.dc <= 0.0 ? kInf : dt / c.dc;
    if (!best || w > best->weight ||
        (w == best->weight &&
         (dt > best->dt || (dt == best->dt && c.pos < best_pos)))) {
      best = Move{c.module, c.type, w, dt, c.dc};
      best_pos = c.pos;
    }
  }
  return best;
}

/// LOSS's rule: the smallest weight, ties -> larger saving, then the
/// earlier move.
bool loss_beats(double w, double saving, const std::optional<Move>& best) {
  return !best || w < best->weight ||
         (w == best->weight && saving > -best->dc);
}

/// LOSS2's move: weight (M' - M)/saving, -inf when M' <= M. The new
/// makespan is max(A, C_i(w')) with A <= M, so it exceeds M exactly when
/// C_i(w') does, and then equals it: the weight is -inf when hi < 0, at
/// most hi/saving otherwise, and at least lo/saving when lo > 0. A
/// candidate whose lower bound exceeds the smallest upper bound is
/// strictly worse than another, so it is never selected; the rule runs,
/// in order, over the rest.
std::optional<Move> best_loss2(const Instance& inst, const Schedule& schedule,
                               std::span<const NodeId> computing,
                               const dag::FlatDag& flat, dag::CpmWorkspace& ws,
                               std::vector<Candidate>& cands) {
  dag::cpm_into(flat, ws);
  const double med_cur = ws.makespan;
  cands.clear();
  double cap = kInf;  // the smallest upper bound on a weight
  for (NodeId i : computing) {
    const std::size_t cur = schedule.type_of[i];
    for (std::size_t j = 0; j < inst.type_count(); ++j) {
      const double saving = inst.cost(i, cur) - inst.cost(i, j);
      if (j == cur || saving <= 0.0) continue;
      const auto [lo, hi] = change_bounds(ws, i, inst.time(i, j));
      Candidate c{i, j, -saving, -kInf, -kInf, cands.size()};
      if (hi >= 0.0) c.hi = hi / saving;
      if (lo > 0.0) c.lo = lo / saving;
      cap = std::min(cap, c.hi);
      cands.push_back(c);
    }
  }
  std::optional<Move> best;
  for (const Candidate& c : cands) {
    if (c.lo > cap) continue;
    const double loss_t =
        c.hi == -kInf
            ? 0.0
            : probe(flat, ws, c.module, inst.time(c.module, c.type)) - med_cur;
    const double w = loss_t <= 0.0 ? -kInf : loss_t / -c.dc;
    if (loss_beats(w, -c.dc, best))
      best = Move{c.module, c.type, w, loss_t, c.dc};
  }
  return best;
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

  // Variants 1 and 2: fully dynamic greedy. V2 keeps the current
  // schedule's durations in ws.weights.
  Result result;
  result.schedule = least_cost_schedule(inst);
  double current_cost = total_cost(inst, result.schedule);
  if (budget < current_cost) throw_below_cmin(budget, current_cost);
  const auto computing = inst.workflow().computing_modules();
  const double eps = cost_eps(budget);
  const dag::FlatDag& flat = inst.flat_dag();
  dag::CpmWorkspace ws;
  dag::makespan_into(flat, durations(inst, result.schedule), ws);
  std::vector<Candidate> cands;
  for (;;) {
    const double left = budget - current_cost;
    if (left <= eps) break;
    std::optional<Move> best;
    if (variant == GainLossVariant::V2) {
      best = best_gain2(inst, move_set, result.schedule, computing, left + eps,
                        flat, ws, cands);
    } else {
      for (NodeId i : computing) {
        const std::size_t cur = result.schedule.type_of[i];
        for_each_target(inst, move_set, i, cur, [&](std::size_t j) {
          const double dc = inst.cost(i, j) - inst.cost(i, cur);
          if (dc > left + eps) return;
          const double dt = inst.time(i, cur) - inst.time(i, j);
          if (dt <= 0.0) return;
          const double w = dc <= 0.0 ? kInf : dt / dc;
          if (!best || w > best->weight ||
              (w == best->weight && dt > best->dt))
            best = Move{i, j, w, dt, dc};
        });
      }
    }
    if (!best) break;
    result.schedule.type_of[best->module] = best->type;
    ws.weights[best->module] = inst.time(best->module, best->type);
    current_cost += best->dc;
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
  // V2 keeps the current schedule's durations in ws.weights.
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

  std::vector<Candidate> cands;
  while (over_budget()) {
    std::optional<Move> best;
    if (variant == GainLossVariant::V2) {
      best = best_loss2(inst, result.schedule, computing, flat, ws, cands);
    } else {
      for (NodeId i : computing) {
        const std::size_t cur = result.schedule.type_of[i];
        for (std::size_t j = 0; j < inst.type_count(); ++j) {
          if (j == cur) continue;
          const double saving = inst.cost(i, cur) - inst.cost(i, j);
          if (saving <= 0.0) continue;
          const double loss_t = inst.time(i, j) - inst.time(i, cur);
          const double w = loss_t <= 0.0 ? -kInf : loss_t / saving;
          if (loss_beats(w, saving, best)) best = Move{i, j, w, loss_t, -saving};
        }
      }
    }
    MEDCC_ENSURES(best.has_value());  // guaranteed while cost > Cmin
    result.schedule.type_of[best->module] = best->type;
    ws.weights[best->module] = inst.time(best->module, best->type);
    current_cost += best->dc;
    ++result.iterations;
  }

  result.eval = evaluate(inst, result.schedule);
  MEDCC_ENSURES(result.eval.cost <= budget + 1e-6 * std::max(1.0, budget));
  detail::check_schedule_invariants(inst, result.schedule, result.eval, budget,
                                    detail::kUnconstrained, "loss");
  return result;
}

}  // namespace medcc::sched
