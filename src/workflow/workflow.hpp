// The workflow (task-graph) model of Section III-B.
//
// A Workflow is a DAG of computing modules. Each module w_i carries a
// workload WL_i (abstract work units; execution time on a VM of type j is
// WL_i / VP_j). Each dependency edge l_ij carries a data size DS_ij used by
// the transfer-time model T(R_ij) = DS_ij / BW + d.
//
// The paper brackets every workflow with an entry and an exit module
// representing initial input and final output; those are modelled as
// *fixed-time* modules: they take the same wall time on any VM type and
// incur no cost (the numerical example uses 1 hour each, the WRF
// experiment uses 0).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dag/critical_path.hpp"
#include "dag/graph.hpp"

namespace medcc::workflow {

using dag::EdgeId;
using dag::NodeId;

/// One computing module of the task graph.
struct Module {
  std::string name;
  /// Workload WL_i; meaningful only when fixed_time is empty.
  double workload = 0.0;
  /// When set, the module runs in exactly this long on any VM and is free
  /// of charge (entry/exit modules; paper Section V-B).
  std::optional<double> fixed_time;

  [[nodiscard]] bool is_fixed() const { return fixed_time.has_value(); }
};

/// Validation outcome for a Workflow; empty problems == valid.
struct ValidationReport {
  std::vector<std::string> problems;
  [[nodiscard]] bool ok() const { return problems.empty(); }
};

/// A DAG-structured scientific workflow G_w(V_w, E_w).
class Workflow {
public:
  Workflow() = default;

  /// Reserves room for `modules` modules and `dependencies` edges in
  /// total (see Dag::reserve).
  void reserve(std::size_t modules, std::size_t dependencies = 0);

  /// Adds a computing module with workload `wl` and returns its id.
  NodeId add_module(std::string name, double workload);

  /// Adds a fixed-duration module (used for entry/exit); free of charge.
  NodeId add_fixed_module(std::string name, double duration);

  /// Adds the dependency src->dst transferring `data_size` units.
  EdgeId add_dependency(NodeId src, NodeId dst, double data_size = 0.0);

  [[nodiscard]] const dag::Dag& graph() const { return graph_; }
  [[nodiscard]] std::size_t module_count() const { return modules_.size(); }
  [[nodiscard]] std::size_t dependency_count() const {
    return graph_.edge_count();
  }
  [[nodiscard]] const Module& module(NodeId id) const {
    MEDCC_EXPECTS(id < modules_.size());
    return modules_[id];
  }
  [[nodiscard]] double data_size(EdgeId id) const {
    MEDCC_EXPECTS(id < data_sizes_.size());
    return data_sizes_[id];
  }

  /// Ids of the schedulable (non-fixed) modules, ascending.
  [[nodiscard]] std::vector<NodeId> computing_modules() const;
  [[nodiscard]] std::size_t computing_module_count() const;

  /// The unique source / sink; validate() guarantees uniqueness.
  [[nodiscard]] NodeId entry() const;
  [[nodiscard]] NodeId exit() const;

  /// Structural checks: non-empty, acyclic, exactly one source and one
  /// sink. Together these imply that every module lies on some
  /// entry->exit path (a walk along out-edges in a finite DAG ends at a
  /// sink, the only one being the exit; a walk back along in-edges ends
  /// at the entry), so no reachability pass runs. Negative workloads and
  /// data sizes are rejected when modules and edges are added.
  [[nodiscard]] ValidationReport validate() const;

  /// Throws InvalidArgument when validate() fails.
  void ensure_valid() const;

  /// Sum of all module workloads (fixed modules contribute zero).
  [[nodiscard]] double total_workload() const;

private:
  dag::Dag graph_;
  std::vector<Module> modules_;
  std::vector<double> data_sizes_;
};

}  // namespace medcc::workflow
