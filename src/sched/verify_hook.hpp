// Invariant hook called by every scheduler on its result before it is
// returned to the caller.
//
// In normal builds the hook compiles to a no-op, so release scheduling
// pays nothing. Configuring with -DMEDCC_CHECK_INVARIANTS=ON (the
// Debug/CI setting) routes each call through analysis/verify.hpp and
// throws analysis::InvariantViolation the moment any scheduler emits an
// over-budget, precedence-violating, or mis-evaluated result -- the
// machine-checked counterpart of the paper's feasibility claims.
#pragma once

#include <limits>

#include "sched/schedule.hpp"
#include "sched/vm_reuse.hpp"

namespace medcc::sched::detail {

/// Passed for the budget/deadline argument when that constraint does not
/// apply to the scheduler being checked.
inline constexpr double kUnconstrained =
    std::numeric_limits<double>::infinity();

/// Verifies (schedule, eval) against `inst` under `budget` (infinity
/// disables the budget check) and `deadline` (same). `scheduler` names the
/// producer in the violation report.
void check_schedule_invariants(const Instance& inst, const Schedule& schedule,
                               const Evaluation& eval, double budget,
                               double deadline, const char* scheduler);

/// Verifies a VM-reuse plan against its schedule.
void check_reuse_invariants(const Instance& inst, const Schedule& schedule,
                            const ReusePlan& plan, const char* scheduler);

}  // namespace medcc::sched::detail
