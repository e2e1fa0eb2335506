#include "expr/robustness.hpp"

#include <algorithm>

#include "dag/cpm_kernel.hpp"

namespace medcc::expr {

double RobustnessReport::miss_rate(double deadline) const {
  if (samples.empty()) return 0.0;
  const auto misses = static_cast<double>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double med) { return med > deadline + 1e-12; }));
  return misses / static_cast<double>(samples.size());
}

RobustnessReport assess_robustness(const sched::Instance& inst,
                                   const sched::Schedule& schedule,
                                   util::ThreadPool& pool,
                                   const RobustnessOptions& options) {
  MEDCC_EXPECTS(options.trials >= 1);
  MEDCC_EXPECTS(options.noise >= 0.0);
  const auto nominal = sched::durations(inst, schedule);
  const dag::FlatDag& flat = inst.flat_dag();

  RobustnessReport report;
  {
    dag::CpmWorkspace ws;
    report.nominal_med = dag::makespan_into(flat, nominal, ws);
  }
  report.samples.assign(options.trials, 0.0);

  const util::Prng root(options.seed);
  util::parallel_for_index(
      pool, options.trials,
      [&](std::size_t trial) {
        auto rng = root.fork(trial);
        static thread_local dag::CpmWorkspace ws;
        ws.prepare(flat.node_count());
        for (sched::NodeId i = 0; i < nominal.size(); ++i) {
          ws.weights[i] = nominal[i];
          if (inst.workflow().module(i).is_fixed()) continue;
          ws.weights[i] *=
              std::max(0.05, 1.0 + rng.normal(0.0, options.noise));
        }
        report.samples[trial] = dag::makespan_into(flat, ws);
      },
      /*grain=*/16);

  util::RunningStats stats;
  for (double med : report.samples) stats.add(med);
  report.mean = stats.mean();
  report.stddev = stats.stddev();
  report.p50 = util::median(report.samples);
  report.p95 = util::percentile(report.samples, 95.0);
  report.max = stats.max();
  return report;
}

}  // namespace medcc::expr
