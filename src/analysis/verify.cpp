#include "analysis/verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <vector>

#include "cloud/cost_model.hpp"

namespace medcc::analysis {
namespace {

using workflow::NodeId;

/// Absolute tolerance scaled to the magnitude of the compared values.
double tol(double rel, double a, double b = 0.0) {
  return rel * std::max({1.0, std::abs(a), std::abs(b)});
}

bool close(double rel, double a, double b) {
  return std::abs(a - b) <= tol(rel, a, b);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// Independent forward pass: earliest start/finish per node under
/// `durations`, honouring per-edge transfer delays. The graph must be
/// acyclic (callers run verify_workflow first).
struct ForwardTimes {
  std::vector<double> est;
  std::vector<double> eft;
  double makespan = 0.0;
};

ForwardTimes forward_pass(const dag::Dag& graph,
                          const std::vector<double>& durations,
                          const std::vector<double>& edge_times) {
  ForwardTimes ft;
  const auto order = graph.topological_order();
  MEDCC_EXPECTS(order.has_value());
  ft.est.assign(graph.node_count(), 0.0);
  ft.eft.assign(graph.node_count(), 0.0);
  for (NodeId v : *order) {
    double start = 0.0;
    for (dag::EdgeId e : graph.in_edges(v)) {
      const double arrival =
          ft.eft[graph.edge(e).src] +
          (edge_times.empty() ? 0.0 : edge_times[e]);
      start = std::max(start, arrival);
    }
    ft.est[v] = start;
    ft.eft[v] = start + durations[v];
    ft.makespan = std::max(ft.makespan, ft.eft[v]);
  }
  return ft;
}

/// Eq. 7 cost of one module, re-derived from the billing policy; fixed
/// modules are free of charge.
double derived_module_cost(const sched::Instance& inst, NodeId i,
                           std::size_t j) {
  if (inst.workflow().module(i).is_fixed()) return 0.0;
  return inst.billing().cost(inst.time(i, j),
                             inst.catalog().type(j).cost_rate);
}

/// Transfer cost re-derived from the network model (Eq. 4).
double derived_transfer_cost(const sched::Instance& inst) {
  double total = 0.0;
  const auto& wf = inst.workflow();
  for (dag::EdgeId e = 0; e < wf.graph().edge_count(); ++e)
    total += cloud::transfer_cost(wf.data_size(e), inst.network());
  return total;
}

}  // namespace

Diagnostics verify_workflow(const workflow::Workflow& wf) {
  Diagnostics diag;
  const auto& g = wf.graph();

  if (g.node_count() == 0) {
    diag.error("empty-workflow", "workflow has no modules");
    return diag;
  }

  const auto order = g.topological_order();
  if (!order.has_value())
    diag.error("cycle", "dependency graph contains a cycle");

  const auto sources = g.sources();
  const auto sinks = g.sinks();
  if (sources.size() != 1) {
    std::ostringstream os;
    os << "expected exactly one entry module, found " << sources.size();
    diag.error("multi-source", os.str());
  }
  if (sinks.size() != 1) {
    std::ostringstream os;
    os << "expected exactly one exit module, found " << sinks.size();
    diag.error("multi-sink", os.str());
  }

  for (NodeId i = 0; i < wf.module_count(); ++i) {
    const auto& mod = wf.module(i);
    if (!mod.is_fixed() && mod.workload < 0.0)
      diag.error("negative-workload", "module " + mod.name +
                                          " has negative workload " +
                                          fmt(mod.workload));
    if (!mod.is_fixed() && mod.workload == 0.0)
      diag.warning("zero-workload",
                   "computing module " + mod.name + " has zero workload");
    if (mod.is_fixed() && *mod.fixed_time < 0.0)
      diag.error("negative-workload", "fixed module " + mod.name +
                                          " has negative duration " +
                                          fmt(*mod.fixed_time));
  }
  for (dag::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (wf.data_size(e) < 0.0) {
      std::ostringstream os;
      os << "edge " << g.edge(e).src << "->" << g.edge(e).dst
         << " has negative data size " << fmt(wf.data_size(e));
      diag.error("negative-data-size", os.str());
    }
  }

  // Every module of an acyclic graph with one entry and one exit lies on
  // an entry->exit path (walks along out-edges end at the only sink,
  // walks back along in-edges at the only source), so no reachability
  // rule exists; redundancy only makes sense on such a graph.
  if (order.has_value() && sources.size() == 1 && sinks.size() == 1) {
    for (dag::EdgeId e : g.redundant_edges()) {
      std::ostringstream os;
      os << "edge " << g.edge(e).src << "->" << g.edge(e).dst
         << " is transitively implied";
      diag.info("redundant-edge", os.str());
    }
  }
  return diag;
}

Diagnostics verify_schedule(const sched::Instance& inst,
                            const sched::Schedule& schedule,
                            const sched::Evaluation& reported,
                            const VerifyOptions& options) {
  Diagnostics diag = verify_workflow(inst.workflow());
  if (!diag.ok()) return diag;

  const std::size_t m = inst.module_count();
  const std::size_t n = inst.type_count();
  const auto& wf = inst.workflow();
  const double rel = options.rel_tol;

  if (schedule.type_of.size() != m) {
    std::ostringstream os;
    os << "schedule maps " << schedule.type_of.size() << " modules, instance "
       << "has " << m;
    diag.error("mapping-size", os.str());
    return diag;
  }

  bool indexable = true;
  for (NodeId i = 0; i < m; ++i) {
    if (schedule.type_of[i] >= n) {
      std::ostringstream os;
      os << "module " << wf.module(i).name << " mapped to VM type "
         << schedule.type_of[i] << ", catalog has " << n << " types";
      diag.error("dangling-vm-type", os.str());
      indexable = false;
    }
  }
  if (!indexable) return diag;

  // --- Cost: re-derive Eq. 7 from the billing policy, then compare the
  // instance's CE table and the reported CTotal against it.
  double derived_cost = derived_transfer_cost(inst);
  for (NodeId i = 0; i < m; ++i) {
    const std::size_t j = schedule.type_of[i];
    const double expected = derived_module_cost(inst, i, j);
    if (!close(rel, expected, inst.cost(i, j))) {
      std::ostringstream os;
      os << "CE[" << i << "][" << j << "] = " << fmt(inst.cost(i, j))
         << " but billing re-derivation gives " << fmt(expected);
      diag.error("cost-table-mismatch", os.str());
    }
    derived_cost += expected;
  }
  if (!close(rel, derived_cost, reported.cost)) {
    diag.error("cost-mismatch", "reported CTotal " + fmt(reported.cost) +
                                    " != re-derived cost " +
                                    fmt(derived_cost));
  }
  if (std::isfinite(options.budget)) {
    if (derived_cost > options.budget + tol(rel, options.budget)) {
      diag.error("over-budget", "re-derived cost " + fmt(derived_cost) +
                                    " exceeds budget " +
                                    fmt(options.budget));
    } else {
      diag.info("budget-slack",
                "unused budget " + fmt(options.budget - derived_cost));
    }
  }

  // --- Timing: independent forward pass over the mapped workflow.
  std::vector<double> durations(m);
  for (NodeId i = 0; i < m; ++i)
    durations[i] = inst.time(i, schedule.type_of[i]);
  const auto ft = forward_pass(wf.graph(), durations, inst.edge_times());

  if (reported.cpm.est.size() != m || reported.cpm.eft.size() != m) {
    std::ostringstream os;
    os << "reported timing covers " << reported.cpm.est.size() << "/"
       << reported.cpm.eft.size() << " modules, instance has " << m;
    diag.error("timing-size", os.str());
    return diag;
  }

  for (NodeId i = 0; i < m; ++i) {
    if (!close(rel, reported.cpm.eft[i],
               reported.cpm.est[i] + durations[i])) {
      std::ostringstream os;
      os << "module " << wf.module(i).name << ": eft "
         << fmt(reported.cpm.eft[i]) << " != est + duration "
         << fmt(reported.cpm.est[i] + durations[i]);
      diag.error("timing-inconsistent", os.str());
    }
  }
  const auto& g = wf.graph();
  for (dag::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& edge = g.edge(e);
    const double ready = reported.cpm.eft[edge.src] + inst.edge_time(e);
    if (reported.cpm.est[edge.dst] <
        ready - tol(rel, ready, reported.cpm.est[edge.dst])) {
      std::ostringstream os;
      os << "module " << wf.module(edge.dst).name << " starts at "
         << fmt(reported.cpm.est[edge.dst]) << " before predecessor "
         << wf.module(edge.src).name << " delivers at " << fmt(ready);
      diag.error("precedence-violation", os.str());
    }
  }
  if (!close(rel, reported.med, ft.makespan) ||
      !close(rel, reported.cpm.makespan, ft.makespan)) {
    std::ostringstream os;
    os << "reported MED " << fmt(reported.med) << " (cpm "
       << fmt(reported.cpm.makespan) << ") != recomputed critical-path "
       << "length " << fmt(ft.makespan);
    diag.error("makespan-mismatch", os.str());
  }
  if (std::isfinite(options.deadline) &&
      ft.makespan > options.deadline + tol(rel, options.deadline)) {
    diag.error("missed-deadline", "recomputed makespan " + fmt(ft.makespan) +
                                      " exceeds deadline " +
                                      fmt(options.deadline));
  }
  return diag;
}

Diagnostics verify_reuse_plan(const sched::Instance& inst,
                              const sched::Schedule& schedule,
                              const sched::ReusePlan& plan,
                              const VerifyOptions& options) {
  constexpr std::size_t kNoInstance = std::numeric_limits<std::size_t>::max();
  Diagnostics diag = verify_workflow(inst.workflow());
  if (!diag.ok()) return diag;

  const std::size_t m = inst.module_count();
  const auto& wf = inst.workflow();
  const double rel = options.rel_tol;

  if (plan.instance_of.size() != m || schedule.type_of.size() != m) {
    std::ostringstream os;
    os << "plan covers " << plan.instance_of.size() << " modules, schedule "
       << schedule.type_of.size() << ", instance has " << m;
    diag.error("reuse-index", os.str());
    return diag;
  }

  for (NodeId i = 0; i < m; ++i) {
    const std::size_t idx = plan.instance_of[i];
    if (wf.module(i).is_fixed()) {
      if (idx != kNoInstance)
        diag.error("reuse-index", "fixed module " + wf.module(i).name +
                                      " assigned to a VM instance");
      continue;
    }
    if (idx >= plan.instances.size()) {
      std::ostringstream os;
      os << "module " << wf.module(i).name << " assigned to VM instance "
         << idx << ", plan has " << plan.instances.size();
      diag.error("reuse-index", os.str());
      continue;
    }
    if (plan.instances[idx].type != schedule.type_of[i]) {
      std::ostringstream os;
      os << "module " << wf.module(i).name << " scheduled on type "
         << schedule.type_of[i] << " but its VM instance " << idx
         << " has type " << plan.instances[idx].type;
      diag.error("reuse-type-mismatch", os.str());
    }
  }

  // Recompute module execution windows (CPM est placement, the plan's
  // contract) and check exclusivity + span per instance.
  std::vector<double> durations(m);
  for (NodeId i = 0; i < m; ++i) {
    durations[i] = schedule.type_of[i] < inst.type_count()
                       ? inst.time(i, schedule.type_of[i])
                       : 0.0;
  }
  const auto ft = forward_pass(wf.graph(), durations, inst.edge_times());

  double derived_billed = 0.0;
  for (std::size_t idx = 0; idx < plan.instances.size(); ++idx) {
    const auto& vm = plan.instances[idx];
    double span_start = std::numeric_limits<double>::infinity();
    double span_finish = 0.0;
    double previous_finish = -std::numeric_limits<double>::infinity();
    for (NodeId v : vm.modules) {
      if (v >= m || plan.instance_of[v] != idx) {
        std::ostringstream os;
        os << "VM instance " << idx << " lists module " << v
           << " which is not assigned to it";
        diag.error("reuse-index", os.str());
        continue;
      }
      const double start = ft.est[v];
      const double finish = ft.eft[v];
      if (start < previous_finish - tol(rel, previous_finish, start)) {
        std::ostringstream os;
        os << "VM instance " << idx << ": module " << wf.module(v).name
           << " starts at " << fmt(start)
           << " before the previous module finishes at "
           << fmt(previous_finish);
        diag.error("reuse-overlap", os.str());
      }
      previous_finish = std::max(previous_finish, finish);
      span_start = std::min(span_start, start);
      span_finish = std::max(span_finish, finish);
    }
    if (!vm.modules.empty() &&
        (!close(rel, vm.first_start, span_start) ||
         !close(rel, vm.last_finish, span_finish))) {
      std::ostringstream os;
      os << "VM instance " << idx << " span [" << fmt(vm.first_start) << ", "
         << fmt(vm.last_finish) << "] != module span [" << fmt(span_start)
         << ", " << fmt(span_finish) << "]";
      diag.error("reuse-span", os.str());
    }
    derived_billed += inst.billing().cost(
        vm.uptime(), inst.catalog().type(vm.type).cost_rate);
  }
  if (!close(rel, derived_billed, plan.billed_cost_uptime)) {
    diag.error("reuse-cost-mismatch",
               "reported uptime billing " + fmt(plan.billed_cost_uptime) +
                   " != re-derived " + fmt(derived_billed));
  }
  return diag;
}

}  // namespace medcc::analysis
