#include "workflow/workflow.hpp"

#include <sstream>

namespace medcc::workflow {

void Workflow::reserve(std::size_t modules, std::size_t dependencies) {
  graph_.reserve(modules, dependencies);
  modules_.reserve(modules);
  data_sizes_.reserve(dependencies);
}

NodeId Workflow::add_module(std::string name, double workload) {
  if (workload < 0.0)
    throw InvalidArgument("Workflow: negative workload for " + name);
  const NodeId id = graph_.add_node();
  modules_.push_back(Module{std::move(name), workload, std::nullopt});
  return id;
}

NodeId Workflow::add_fixed_module(std::string name, double duration) {
  if (duration < 0.0)
    throw InvalidArgument("Workflow: negative duration for " + name);
  const NodeId id = graph_.add_node();
  modules_.push_back(Module{std::move(name), 0.0, duration});
  return id;
}

EdgeId Workflow::add_dependency(NodeId src, NodeId dst, double data_size) {
  if (data_size < 0.0)
    throw InvalidArgument("Workflow: negative data size");
  const EdgeId id = graph_.add_edge(src, dst);
  data_sizes_.push_back(data_size);
  return id;
}

std::vector<NodeId> Workflow::computing_modules() const {
  std::vector<NodeId> result;
  for (NodeId v = 0; v < modules_.size(); ++v)
    if (!modules_[v].is_fixed()) result.push_back(v);
  return result;
}

std::size_t Workflow::computing_module_count() const {
  std::size_t count = 0;
  for (const auto& m : modules_)
    if (!m.is_fixed()) ++count;
  return count;
}

NodeId Workflow::entry() const {
  const auto srcs = graph_.sources();
  MEDCC_EXPECTS(srcs.size() == 1);
  return srcs.front();
}

NodeId Workflow::exit() const {
  const auto snks = graph_.sinks();
  MEDCC_EXPECTS(snks.size() == 1);
  return snks.front();
}

ValidationReport Workflow::validate() const {
  ValidationReport report;
  if (modules_.empty()) {
    report.problems.push_back("workflow has no modules");
    return report;
  }
  if (!graph_.is_acyclic())
    report.problems.push_back("dependency graph contains a cycle");

  const auto srcs = graph_.sources();
  const auto snks = graph_.sinks();
  if (srcs.size() != 1) {
    std::ostringstream os;
    os << "expected exactly one entry module, found " << srcs.size();
    report.problems.push_back(os.str());
  }
  if (snks.size() != 1) {
    std::ostringstream os;
    os << "expected exactly one exit module, found " << snks.size();
    report.problems.push_back(os.str());
  }
  // No reachability pass is needed: in an acyclic graph with exactly
  // one source and one sink every module lies on an entry->exit path.
  // Following out-edges from any module must stop (the graph is finite
  // and has no cycle) and can only stop at a node without out-edges,
  // which is the exit; following in-edges backwards likewise stops only
  // at the entry. Graphs failing one of the checks above are already
  // reported.
  return report;
}

void Workflow::ensure_valid() const {
  const auto report = validate();
  if (report.ok()) return;
  std::ostringstream os;
  os << "invalid workflow:";
  for (const auto& p : report.problems) os << ' ' << p << ';';
  throw InvalidArgument(os.str());
}

double Workflow::total_workload() const {
  double total = 0.0;
  for (const auto& m : modules_)
    if (!m.is_fixed()) total += m.workload;
  return total;
}

}  // namespace medcc::workflow
