#include "sched/verify_hook.hpp"

#if MEDCC_CHECK_INVARIANTS
#include "analysis/verify.hpp"
#endif

namespace medcc::sched::detail {

#if MEDCC_CHECK_INVARIANTS

void check_schedule_invariants(const Instance& inst, const Schedule& schedule,
                               const Evaluation& eval, double budget,
                               double deadline, const char* scheduler) {
  analysis::VerifyOptions options;
  options.budget = budget;
  options.deadline = deadline;
  analysis::verify_schedule(inst, schedule, eval, options)
      .throw_if_errors(scheduler);
}

void check_reuse_invariants(const Instance& inst, const Schedule& schedule,
                            const ReusePlan& plan, const char* scheduler) {
  analysis::verify_reuse_plan(inst, schedule, plan)
      .throw_if_errors(scheduler);
}

#else

void check_schedule_invariants(const Instance&, const Schedule&,
                               const Evaluation&, double, double,
                               const char*) {}

void check_reuse_invariants(const Instance&, const Schedule&,
                            const ReusePlan&, const char*) {}

#endif  // MEDCC_CHECK_INVARIANTS

}  // namespace medcc::sched::detail
