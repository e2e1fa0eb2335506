#include "multicloud/multicloud.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "dag/cpm_kernel.hpp"

namespace medcc::multicloud {

Federation::Federation(std::vector<CloudSite> sites,
                       InterCloudLink default_link)
    : sites_(std::move(sites)), default_link_(default_link) {
  if (sites_.empty())
    throw InvalidArgument("Federation: at least one site required");
  for (const auto& site : sites_)
    if (site.catalog.empty())
      throw InvalidArgument("Federation: site " + site.name +
                            " has an empty catalog");
  if (default_link_.bandwidth < 0.0 || default_link_.delay < 0.0 ||
      default_link_.cost_per_unit < 0.0)
    throw InvalidArgument("Federation: negative link parameter");
}

void Federation::set_link(std::size_t from, std::size_t to,
                          InterCloudLink link) {
  MEDCC_EXPECTS(from < sites_.size() && to < sites_.size());
  if (from == to)
    throw InvalidArgument("Federation: intra-site links are implicit");
  const std::size_t key = from * sites_.size() + to;
  for (auto& [k, l] : overrides_) {
    if (k == key) {
      l = link;
      return;
    }
  }
  overrides_.emplace_back(key, link);
}

const InterCloudLink& Federation::link(std::size_t from,
                                       std::size_t to) const {
  MEDCC_EXPECTS(from < sites_.size() && to < sites_.size());
  const std::size_t key = from * sites_.size() + to;
  for (const auto& [k, l] : overrides_)
    if (k == key) return l;
  return default_link_;
}

double Federation::transfer_time(std::size_t a, std::size_t b,
                                 double data) const {
  if (a == b || data <= 0.0) return 0.0;
  const auto& l = link(a, b);
  const double wire = l.bandwidth > 0.0 ? data / l.bandwidth : 0.0;
  return wire + l.delay;
}

double Federation::transfer_cost(std::size_t a, std::size_t b,
                                 double data) const {
  if (a == b || data <= 0.0) return 0.0;
  return link(a, b).cost_per_unit * data;
}

McInstance::McInstance(Workflow wf, Federation federation,
                       cloud::BillingPolicy billing)
    : workflow_(std::move(wf)),
      federation_(std::move(federation)),
      billing_(billing) {
  workflow_.ensure_valid();
}

double McInstance::time(NodeId i, const Placement& p) const {
  const auto& mod = workflow_.module(i);
  if (mod.is_fixed()) return *mod.fixed_time;
  MEDCC_EXPECTS(p.site < federation_.site_count());
  return cloud::execution_time(mod.workload,
                               federation_.site(p.site).catalog.type(p.type));
}

double McInstance::cost(NodeId i, const Placement& p) const {
  const auto& mod = workflow_.module(i);
  if (mod.is_fixed()) return 0.0;
  MEDCC_EXPECTS(p.site < federation_.site_count());
  const auto& vm = federation_.site(p.site).catalog.type(p.type);
  return cloud::execution_cost(cloud::execution_time(mod.workload, vm), vm,
                               billing_);
}

McEvaluation evaluate(const McInstance& inst, const McSchedule& schedule) {
  const auto& wf = inst.workflow();
  MEDCC_EXPECTS(schedule.of.size() == wf.module_count());

  std::vector<double> node_weights(wf.module_count());
  for (NodeId i = 0; i < wf.module_count(); ++i)
    node_weights[i] = inst.time(i, schedule.of[i]);

  std::vector<double> edge_weights(wf.graph().edge_count());
  McEvaluation eval;
  for (dag::EdgeId e = 0; e < wf.graph().edge_count(); ++e) {
    const auto& edge = wf.graph().edge(e);
    const std::size_t sa = schedule.of[edge.src].site;
    const std::size_t sb = schedule.of[edge.dst].site;
    edge_weights[e] =
        inst.federation().transfer_time(sa, sb, wf.data_size(e));
    eval.transfer_cost +=
        inst.federation().transfer_cost(sa, sb, wf.data_size(e));
  }

  // Edge weights depend on the placement, so each evaluation freezes its
  // own FlatDag.
  const dag::FlatDag flat(wf.graph(), edge_weights);
  dag::CpmWorkspace ws;
  dag::cpm_into(flat, node_weights, ws);
  eval.cpm = dag::export_result(flat, ws);
  eval.med = eval.cpm.makespan;
  eval.cost = eval.transfer_cost;
  for (NodeId i = 0; i < wf.module_count(); ++i)
    eval.cost += inst.cost(i, schedule.of[i]);
  return eval;
}

McSchedule single_site_least_cost(const McInstance& inst) {
  const auto& wf = inst.workflow();
  McSchedule best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < inst.federation().site_count(); ++s) {
    McSchedule candidate;
    candidate.of.assign(wf.module_count(), Placement{s, 0});
    double total = 0.0;
    for (NodeId i = 0; i < wf.module_count(); ++i) {
      const auto& catalog = inst.federation().site(s).catalog;
      Placement pick{s, 0};
      for (std::size_t j = 1; j < catalog.size(); ++j) {
        const Placement p{s, j};
        const double cj = inst.cost(i, p), cb = inst.cost(i, pick);
        // Exact tie-break on CE matrix entries (copied, not accumulated).
        if (cj < cb ||
            (cj == cb &&  // medcc-lint: allow(float-eq)
             inst.time(i, p) < inst.time(i, pick)))
          pick = p;
      }
      candidate.of[i] = pick;
      total += inst.cost(i, pick);
    }
    if (total < best_cost) {
      best_cost = total;
      best = std::move(candidate);
    }
  }
  return best;
}

McResult critical_greedy_mc(const McInstance& inst, double budget) {
  McResult result;
  result.schedule = single_site_least_cost(inst);
  McEvaluation eval = evaluate(inst, result.schedule);
  if (budget < eval.cost) {
    std::ostringstream os;
    os << "critical_greedy_mc: budget " << budget
       << " below the single-site least-cost " << eval.cost;
    throw Infeasible(os.str());
  }

  const auto computing = inst.workflow().computing_modules();
  const double eps = 1e-9 * std::max(1.0, budget);

  for (;;) {
    const double left = budget - eval.cost;
    if (left <= eps) break;

    bool found = false;
    NodeId best_module = 0;
    Placement best_placement{};
    double best_dt = 0.0;
    double best_dc = 0.0;
    McEvaluation best_eval;

    for (NodeId i : computing) {
      if (!eval.cpm.critical[i]) continue;
      const Placement cur = result.schedule.of[i];
      for (std::size_t s = 0; s < inst.federation().site_count(); ++s) {
        const auto& catalog = inst.federation().site(s).catalog;
        for (std::size_t j = 0; j < catalog.size(); ++j) {
          const Placement p{s, j};
          if (p == cur) continue;
          // Alg. 1's criterion: rank by the module's execution-time
          // decrease. Cheap local pre-filter first; then a full global
          // evaluation for the cost delta (which includes incident
          // transfer-cost changes) and a safety check that cross-site
          // edge delays do not grow the makespan.
          const double dt = inst.time(i, cur) - inst.time(i, p);
          if (dt <= 0.0) continue;
          // Only an at-least-as-good dt can win (equal dt still needs the
          // evaluation for the min-dc tie-break); skip the rest.
          if (found && dt < best_dt) continue;
          result.schedule.of[i] = p;
          const auto cand = evaluate(inst, result.schedule);
          result.schedule.of[i] = cur;
          const double dc = cand.cost - eval.cost;
          if (dc > left + eps) continue;
          if (cand.med > eval.med + 1e-12) continue;  // edge delays dominate
          if (!found || dt > best_dt || (dt == best_dt && dc < best_dc)) {
            found = true;
            best_module = i;
            best_placement = p;
            best_dt = dt;
            best_dc = dc;
            best_eval = cand;
          }
        }
      }
    }
    if (!found) break;
    result.schedule.of[best_module] = best_placement;
    eval = std::move(best_eval);
    ++result.iterations;
  }

  result.eval = std::move(eval);
  MEDCC_ENSURES(result.eval.cost <= budget + 1e-6 * std::max(1.0, budget));
  return result;
}

}  // namespace medcc::multicloud
