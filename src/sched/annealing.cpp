#include "sched/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dag/cpm_kernel.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/verify_hook.hpp"

namespace medcc::sched {
namespace {

/// Greedy repair shared with the GA: while over budget, apply the
/// downgrade losing the least time per dollar saved.
void repair(const Instance& inst, double budget, Schedule& schedule) {
  const auto computing = inst.workflow().computing_modules();
  double cost = total_cost(inst, schedule);
  while (cost > budget + 1e-9) {
    NodeId best_module = 0;
    std::size_t best_type = 0;
    double best_ratio = std::numeric_limits<double>::infinity();
    bool found = false;
    for (NodeId i : computing) {
      const std::size_t cur = schedule.type_of[i];
      for (std::size_t j = 0; j < inst.type_count(); ++j) {
        if (j == cur) continue;
        const double saving = inst.cost(i, cur) - inst.cost(i, j);
        if (saving <= 0.0) continue;
        const double loss = inst.time(i, j) - inst.time(i, cur);
        const double ratio = loss <= 0.0
                                 ? -std::numeric_limits<double>::infinity()
                                 : loss / saving;
        if (!found || ratio < best_ratio) {
          found = true;
          best_ratio = ratio;
          best_module = i;
          best_type = j;
        }
      }
    }
    MEDCC_ENSURES(found);
    cost += inst.cost(best_module, best_type) -
            inst.cost(best_module, schedule.type_of[best_module]);
    schedule.type_of[best_module] = best_type;
  }
}

}  // namespace

Result annealing(const Instance& inst, double budget,
                 const AnnealingOptions& options) {
  const auto least = least_cost_schedule(inst);
  if (budget < total_cost(inst, least))
    throw Infeasible("annealing: budget below least-cost schedule cost");

  util::Prng rng(options.seed);
  const auto computing = inst.workflow().computing_modules();
  const dag::FlatDag& flat = inst.flat_dag();

  Schedule current =
      options.seed_with_cg ? critical_greedy(inst, budget).schedule : least;

  // Each neighbour's durations are written into ws.weights and scored by
  // a forward pass; the next neighbour overwrites them, so a rejected move
  // leaves nothing to undo. Fixed modules keep their seeded durations.
  dag::CpmWorkspace ws;
  double current_med = dag::makespan_into(flat, durations(inst, current), ws);
  Schedule best = current;
  double best_med = current_med;
  Schedule neighbour = current;  // persistent buffer: no per-iteration alloc

  double temperature =
      std::max(1e-9, options.initial_temperature_fraction * current_med);
  for (std::size_t iter = 0; iter < options.iterations; ++iter) {
    neighbour = current;
    const NodeId i = rng.choice(computing);
    neighbour.type_of[i] = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(inst.type_count()) - 1));
    repair(inst, budget, neighbour);
    for (NodeId m : computing)
      ws.weights[m] = inst.time(m, neighbour.type_of[m]);
    const double med = dag::makespan_into(flat, ws);
    const double delta = med - current_med;
    if (delta <= 0.0 ||
        rng.bernoulli(std::exp(-delta / temperature))) {
      std::swap(current.type_of, neighbour.type_of);
      current_med = med;
      if (current_med < best_med) {
        best = current;
        best_med = current_med;
      }
    }
    temperature *= options.cooling;
  }

  Result result;
  result.schedule = std::move(best);
  result.eval = evaluate(inst, result.schedule);
  result.iterations = options.iterations;
  MEDCC_ENSURES(result.eval.cost <= budget + 1e-6 * std::max(1.0, budget));
  detail::check_schedule_invariants(inst, result.schedule, result.eval, budget,
                                    detail::kUnconstrained, "annealing");
  return result;
}

}  // namespace medcc::sched
