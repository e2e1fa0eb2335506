// Self-test fixture: makespans scored through the FlatDag kernels. Names
// that merely mention the reference -- comments, strings, the CpmResult
// type, a member makespan() or a makespan field -- must not trip
// legacy-cpm-in-library (nor may "compute_cpm(" inside a comment).
// medcc-lint-expect: clean
#include <string>
#include <vector>

#include "dag/cpm_kernel.hpp"
#include "sched/instance.hpp"

namespace medcc::fixture {

struct Plan {
  double makespan() const { return length; }
  double length = 0.0;
};

double probe(const sched::Instance& inst, dag::CpmWorkspace& ws,
             std::size_t module, double weight) {
  const double saved = ws.weights[module];
  ws.weights[module] = weight;
  const double med = dag::makespan_into(inst.flat_dag(), ws);
  ws.weights[module] = saved;
  return med;
}

dag::CpmResult full(const sched::Instance& inst, dag::CpmWorkspace& ws,
                    const Plan& plan) {
  dag::cpm_into(inst.flat_dag(), ws);
  const std::string note = "dag::makespan( is the reference";
  (void)note;
  (void)plan.makespan();
  return dag::export_result(inst.flat_dag(), ws);
}

}  // namespace medcc::fixture
