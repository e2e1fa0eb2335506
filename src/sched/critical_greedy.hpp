// Critical-Greedy (Alg. 1 of the paper), the proposed MED-CC heuristic.
//
// Starting from the least-cost schedule, the algorithm repeatedly
//   1. recomputes the critical path of the currently mapped workflow,
//   2. over all critical modules and all VM types, finds the reassignment
//      with the largest execution-time decrease dT whose cost increase dC
//      fits in the remaining budget (ties -> smallest dC),
//   3. applies it and charges dC against the budget,
// until no affordable improving reassignment of a critical module exists.
//
// Complexity: the CP recomputation is O(m + |Ew|) per round; the candidate
// scan is O(|CP| * n).
//
// A budget sweep shares one trajectory (CgSweep). Record one *unbounded*
// run: the same scan with no affordability test. A run at budget B
// starts in the same state, and while the unbounded run's next move M is
// affordable under B, B's candidate set is a subset that contains M, so
// B picks M too. B's run is therefore a prefix of the unbounded
// trajectory up to the first move B cannot afford, from where it
// continues with its own scan. Each run tests affordability with its own
// epsilon, eps(B) = 1e-9 * max(1, B): before every move, replayed or
// scanned, it stops once the budget left is within eps(B), even when the
// next move's dC is too (a near-free upgrade), and otherwise admits a
// move with dC <= left + eps(B).
#pragma once

#include <vector>

#include "sched/schedule.hpp"

namespace medcc::sched {

/// Tuning knobs for the ablation study (bench/ablation_candidate_set);
/// the defaults are exactly Alg. 1.
struct CriticalGreedyOptions {
  /// Consider every module, not just critical ones (GAIN-like candidate
  /// set with CG's absolute-dT criterion).
  bool all_modules = false;
  /// Rank candidates by dT/dC instead of absolute dT (GAIN-like criterion
  /// with CG's critical-only candidate set).
  bool ratio_criterion = false;
};

/// Runs Critical-Greedy under budget B.
/// Throws Infeasible when B < Cmin (Alg. 1, lines 4-5).
[[nodiscard]] Result critical_greedy(const Instance& inst, double budget,
                                     const CriticalGreedyOptions& options = {});

/// One applied reassignment of a Critical-Greedy run.
struct CgMove {
  NodeId module = 0;
  std::size_t from_type = 0;
  std::size_t to_type = 0;
  double dt = 0.0;         ///< module execution-time decrease (Eq. 10)
  double dc = 0.0;         ///< cost increase charged (Eq. 11)
  double med_after = 0.0;  ///< end-to-end delay after applying the move
  double cost_after = 0.0;
};

/// The full rescheduling storyline (the Section V-B walkthrough, e.g. at
/// B=57: w4 then w3 then w6 then w2, ending at MED 6.77 with $1 unused).
struct CgTrace {
  Result result;
  std::vector<CgMove> moves;
};

/// Same algorithm as critical_greedy, additionally recording every move.
[[nodiscard]] CgTrace critical_greedy_trace(
    const Instance& inst, double budget,
    const CriticalGreedyOptions& options = {});

/// Critical-Greedy (default options) over a budget sweep. The constructor
/// records the unbounded trajectory from the least-cost schedule (at most
/// one move per module: the unbounded scan sends the module it picks
/// straight to its fastest type); answer(B) replays its affordable
/// prefix, then runs one CPM pass and finishes with Alg. 1's loop. answer(B) equals critical_greedy(inst, B)
/// bit for bit at every B, including the Infeasible text below Cmin.
class CgSweep final : public BudgetSweep {
public:
  explicit CgSweep(const Instance& inst);
  [[nodiscard]] Result answer(double budget) const override;

private:
  const Instance& inst_;
  Schedule start_;  ///< the least-cost schedule
  double cmin_ = 0.0;
  std::vector<CgMove> moves_;  ///< the unbounded run's moves, in order
};

}  // namespace medcc::sched
