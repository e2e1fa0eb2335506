// Self-test fixture: library code scoring makespans through the legacy
// reference CPM instead of the FlatDag kernels.
// medcc-lint-expect: legacy-cpm-in-library
#include <vector>

#include "dag/critical_path.hpp"
#include "sched/instance.hpp"

namespace medcc::fixture {

double probe(const sched::Instance& inst, std::vector<double>& weights) {
  return dag::makespan(inst.workflow().graph(), weights, inst.edge_times());
}

bool is_critical(const sched::Instance& inst,
                 const std::vector<double>& weights, std::size_t module) {
  const auto cpm =
      medcc::dag::compute_cpm(inst.workflow().graph(), weights,
                              inst.edge_times());
  return cpm.critical[module];
}

}  // namespace medcc::fixture
