// Machine-checked feasibility: independent re-derivation of the paper's
// invariants for workflows, schedules and VM-reuse plans.
//
// The verifiers deliberately do NOT call the code under test:
// verify_schedule() re-derives every module cost from the billing policy
// (Eq. 7) instead of trusting the Instance's cached CE matrix, and
// recomputes est/eft/makespan with its own forward pass instead of
// calling the CPM kernels the solvers use. A scheduler bug that corrupts
// an Evaluation therefore cannot also corrupt the check.
//
// Rule ids emitted (stable, matched by tests):
//   verify_workflow : cycle, multi-source, multi-sink, empty-workflow,
//                     negative-workload, negative-data-size,
//                     zero-workload (warning), redundant-edge (info)
//                     (no reachability rule: an acyclic graph with one
//                     source and one sink has every module on an
//                     entry->exit path)
//   verify_schedule : mapping-size, dangling-vm-type, cost-table-mismatch,
//                     cost-mismatch, over-budget, missed-deadline,
//                     timing-size, timing-inconsistent,
//                     precedence-violation, makespan-mismatch,
//                     budget-slack (info)
//   verify_reuse_plan: reuse-index, reuse-type-mismatch, reuse-overlap,
//                     reuse-span, reuse-cost-mismatch
#pragma once

#include <limits>

#include "analysis/diagnostics.hpp"
#include "sched/instance.hpp"
#include "sched/schedule.hpp"
#include "sched/vm_reuse.hpp"
#include "workflow/workflow.hpp"

namespace medcc::analysis {

/// Tolerances and constraint bounds for schedule verification.
struct VerifyOptions {
  /// Budget B the schedule must respect; infinity disables the check.
  double budget = std::numeric_limits<double>::infinity();
  /// Deadline the makespan must respect; infinity disables the check.
  double deadline = std::numeric_limits<double>::infinity();
  /// Relative tolerance for floating-point comparisons (scaled by the
  /// magnitude of the compared quantities, floor 1.0).
  double rel_tol = 1e-6;
};

/// Structural invariants of Section III-B: DAG-ness, a unique entry and
/// exit (which together imply full entry->exit coverage), non-negative
/// workloads and data sizes.
[[nodiscard]] Diagnostics verify_workflow(const workflow::Workflow& wf);

/// Full feasibility check of (schedule, reported evaluation) against
/// `inst`: valid VM-type mapping, Eq. 7 costs re-derived from the billing
/// policy match both the instance's CE table and the reported cost, the
/// cost fits options.budget, the reported est/eft respect every
/// precedence edge, and the reported makespan equals an independently
/// recomputed critical-path length.
[[nodiscard]] Diagnostics verify_schedule(const sched::Instance& inst,
                                          const sched::Schedule& schedule,
                                          const sched::Evaluation& reported,
                                          const VerifyOptions& options = {});

/// Consistency of a VM-reuse plan with its schedule: instance_of indices
/// valid and type-consistent, no overlapping executions sharing one VM,
/// instance spans covering their modules, and the uptime billing equal to
/// a re-derived quantum billing of every instance span.
[[nodiscard]] Diagnostics verify_reuse_plan(const sched::Instance& inst,
                                            const sched::Schedule& schedule,
                                            const sched::ReusePlan& plan,
                                            const VerifyOptions& options = {});

}  // namespace medcc::analysis
