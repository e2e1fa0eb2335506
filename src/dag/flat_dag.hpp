// An immutable, cache-friendly snapshot of a Dag for repeated evaluation.
//
// The adjacency-list Dag is convenient to build but expensive to traverse
// hot: every in_edges()/edge() hop chases a separate heap allocation, the
// topological order is recomputed per CPM call, and edge weights live in a
// parallel array indexed by EdgeId. FlatDag freezes one (graph, edge
// weights) pair into compressed-sparse-row form -- contiguous in/out arc
// arrays with the edge weight inlined next to the endpoint -- plus the
// cached topological order. Validation (acyclicity, weight-array size,
// non-negative weights) happens once at build time, so the CPM kernels in
// dag/cpm_kernel.hpp can skip it on every call.
//
// Arc enumeration order is preserved exactly from the source Dag's edge
// lists: the kernels reproduce compute_cpm's results (including the
// extracted critical path) bit for bit.
#pragma once

#include <span>
#include <vector>

#include "dag/graph.hpp"

namespace medcc::dag {

/// One CSR slot: the neighbouring node and the inlined edge weight.
struct FlatArc {
  NodeId node = 0;
  double weight = 0.0;
};

class FlatDag {
public:
  FlatDag() = default;

  /// Freezes `graph` with per-edge delays (empty means all-zero, matching
  /// compute_cpm's convention; otherwise size must equal edge_count()).
  /// Throws InvalidArgument on a cycle, size mismatch, or negative weight.
  explicit FlatDag(const Dag& graph, std::span<const double> edge_weights = {});

  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// The cached topological order (identical to Dag::topological_order()).
  [[nodiscard]] std::span<const NodeId> topo_order() const { return topo_; }

  /// Incoming arcs of `v` (arc.node is the predecessor), in the same order
  /// as Dag::in_edges(v).
  [[nodiscard]] std::span<const FlatArc> in_arcs(NodeId v) const {
    MEDCC_EXPECTS(v < node_count_);
    return {in_arcs_.data() + in_off_[v], in_off_[v + 1] - in_off_[v]};
  }
  /// Outgoing arcs of `v` (arc.node is the successor), in the same order
  /// as Dag::out_edges(v).
  [[nodiscard]] std::span<const FlatArc> out_arcs(NodeId v) const {
    MEDCC_EXPECTS(v < node_count_);
    return {out_arcs_.data() + out_off_[v], out_off_[v + 1] - out_off_[v]};
  }

  [[nodiscard]] std::size_t in_degree(NodeId v) const {
    MEDCC_EXPECTS(v < node_count_);
    return in_off_[v + 1] - in_off_[v];
  }
  [[nodiscard]] std::size_t out_degree(NodeId v) const {
    MEDCC_EXPECTS(v < node_count_);
    return out_off_[v + 1] - out_off_[v];
  }

private:
  std::size_t node_count_ = 0;
  std::size_t edge_count_ = 0;
  std::vector<std::size_t> in_off_;   ///< size node_count_+1
  std::vector<std::size_t> out_off_;  ///< size node_count_+1
  std::vector<FlatArc> in_arcs_;
  std::vector<FlatArc> out_arcs_;
  std::vector<NodeId> topo_;
};

}  // namespace medcc::dag
