// The GAIN and LOSS budget-constrained rescheduling heuristics of
// Sakellariou, Zhao, Tsiakkouri and Dikaiakos, "Scheduling workflows with
// budget constraints" (Integrated Research in GRID Computing, 2007) -- the
// baselines the paper compares Critical-Greedy against (GAIN3 is the
// strongest least-cost-seeded member of the family, so it is the one used
// in Section VI).
//
// GAIN starts from the least-cost schedule and spends budget on upgrades:
//   GainWeight(i, j) = (T_cur(i) - T(E_ij)) / (C(E_ij) - C_cur(i)),
// the time decrease per unit of extra money; upgrades that save time at no
// extra cost are taken unconditionally.
//
// LOSS starts from a fastest/HEFT-style schedule and downgrades while the
// cost exceeds the budget:
//   LossWeight(i, j) = (T(E_ij) - T_cur(i)) / (C_cur(i) - C(E_ij)),
// the time lost per unit of money saved; the smallest weight goes first.
//
// Variant semantics (1/2/3), following the original paper's structure:
//   1 -- weights from *task* execution-time differences, recomputed against
//        the current schedule after every reassignment;
//   2 -- weights from the *makespan* difference the reassignment would
//        cause (global effect), recomputed after every reassignment. A
//        round runs one full CPM pass and bounds each candidate's makespan
//        change from its slack; only the candidates whose bound can reach
//        the best weight get a forward pass, so the chosen move is the
//        one probing every candidate would choose, bit for bit;
//   3 -- weights from task differences computed ONCE against the initial
//        schedule; tasks are then visited in static weight order.
//
// A budget sweep answers every budget of one instance from work done
// once, bit-identically to the one-shot solver:
//   GAIN3 -- the sorted move list does not depend on B (Gain3Sweep);
//   GAIN2 -- a round picks the best affordable move under one fixed order
//            (weight, dt, scan position), which dropping unaffordable
//            moves keeps; while B affords the unbounded run's next move,
//            B picks it too (Gain2Sweep, as CgSweep does for CG);
//   LOSS2 -- the moves never depend on B, only where the run stops; the
//            cost falls along the run and B + eps(B) grows with B, so the
//            run at B = Cmin passes every budget's stop (Loss2Sweep).
// Each answer applies its own eps(B) = 1e-9 * max(1, B) in the one-shot
// run's tests: GAIN takes a move when dC <= B - cost + eps(B), and LOSS
// downgrades while cost > B + eps(B).
#pragma once

#include <vector>

#include "sched/schedule.hpp"

namespace medcc::sched {

enum class GainLossVariant { V1 = 1, V2 = 2, V3 = 3 };

/// Which reassignments GAIN considers per task.
enum class GainMoveSet {
  /// Each task may move to its *fastest* type only (one candidate per
  /// task) -- the original GAIN semantics. Reproduces the paper's GAIN3
  /// numbers (e.g. MED 784.0 on the WRF instance at budget 155).
  FastestType,
  /// Every (task, type) pair with a positive time decrease is a candidate
  /// -- a strictly stronger, ratio-greedy baseline (used in ablations).
  AllPairs,
};

/// GAIN under budget B. Throws Infeasible when B < Cmin.
[[nodiscard]] Result gain(const Instance& inst, double budget,
                          GainLossVariant variant = GainLossVariant::V3,
                          GainMoveSet move_set = GainMoveSet::FastestType);

/// GAIN3 -- the baseline of Section VI (static weights, fastest-type
/// moves, least-cost seed).
[[nodiscard]] inline Result gain3(const Instance& inst, double budget) {
  return gain(inst, budget, GainLossVariant::V3, GainMoveSet::FastestType);
}

/// One applied reassignment of a GAIN/LOSS run, as a sweep replays it:
/// `module` moves to `type`, and the running cost changes by `dc`.
struct Reassignment {
  NodeId module = 0;
  std::size_t type = 0;
  double dc = 0.0;
};

/// GAIN variant 3 over a budget sweep: the constructor builds and sorts
/// the static move list against the least-cost schedule; answer(B) walks
/// it, reassigning each task at most once. gain(inst, B, V3, move_set)
/// is Gain3Sweep(inst, move_set).answer(B).
class Gain3Sweep final : public BudgetSweep {
public:
  explicit Gain3Sweep(const Instance& inst,
                      GainMoveSet move_set = GainMoveSet::FastestType);
  [[nodiscard]] Result answer(double budget) const override;

private:
  const Instance& inst_;
  Schedule start_;  ///< the least-cost schedule
  double cmin_ = 0.0;
  /// Descending static weight, ties -> larger dT.
  std::vector<Reassignment> order_;
};

/// GAIN variant 2 over a budget sweep: the constructor records the
/// unbounded run from the least-cost schedule; answer(B) replays it while
/// B can afford the next move, then finishes with B's own loop. Equals
/// gain(inst, B, V2, move_set) bit for bit, Infeasible text included.
class Gain2Sweep final : public BudgetSweep {
public:
  explicit Gain2Sweep(const Instance& inst,
                      GainMoveSet move_set = GainMoveSet::FastestType);
  [[nodiscard]] Result answer(double budget) const override;

private:
  const Instance& inst_;
  GainMoveSet move_set_;
  Schedule start_;  ///< the least-cost schedule
  double cmin_ = 0.0;
  std::vector<Reassignment> moves_;  ///< the unbounded run's moves, in order
};

/// LOSS under budget B. Starts from the fastest schedule (the unlimited-VM
/// analogue of a HEFT seed) and downgrades until the cost fits the budget.
/// Throws Infeasible when B < Cmin (then even full downgrading cannot fit).
[[nodiscard]] Result loss(const Instance& inst, double budget,
                          GainLossVariant variant = GainLossVariant::V1);

/// LOSS variant 2 over a budget sweep: the constructor records the run at
/// B = Cmin from the fastest schedule; answer(B) replays it while the
/// running cost exceeds B + eps(B). Equals loss(inst, B, V2) bit for bit,
/// Infeasible text included.
class Loss2Sweep final : public BudgetSweep {
public:
  explicit Loss2Sweep(const Instance& inst);
  [[nodiscard]] Result answer(double budget) const override;

private:
  const Instance& inst_;
  Schedule start_;  ///< the fastest schedule
  double start_cost_ = 0.0;
  double cmin_ = 0.0;
  std::vector<Reassignment> moves_;  ///< the run at Cmin's moves, in order
};

}  // namespace medcc::sched
