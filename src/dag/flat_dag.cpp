#include "dag/flat_dag.hpp"

namespace medcc::dag {

FlatDag::FlatDag(const Dag& graph, std::span<const double> edge_weights)
    : node_count_(graph.node_count()), edge_count_(graph.edge_count()) {
  if (!edge_weights.empty() && edge_weights.size() != edge_count_)
    throw InvalidArgument("FlatDag: edge_weights size mismatch");
  for (double w : edge_weights)
    if (w < 0.0) throw InvalidArgument("FlatDag: negative edge weight");

  auto order = graph.topological_order();
  if (!order) throw InvalidArgument("FlatDag: graph contains a cycle");
  topo_ = std::move(*order);

  const auto weight_of = [&](EdgeId e) {
    return edge_weights.empty() ? 0.0 : edge_weights[e];
  };

  in_off_.assign(node_count_ + 1, 0);
  out_off_.assign(node_count_ + 1, 0);
  in_arcs_.reserve(edge_count_);
  out_arcs_.reserve(edge_count_);
  for (NodeId v = 0; v < node_count_; ++v) {
    in_off_[v] = in_arcs_.size();
    for (EdgeId e : graph.in_edges(v))
      in_arcs_.push_back(FlatArc{graph.edge(e).src, weight_of(e)});
    out_off_[v] = out_arcs_.size();
    for (EdgeId e : graph.out_edges(v))
      out_arcs_.push_back(FlatArc{graph.edge(e).dst, weight_of(e)});
  }
  in_off_[node_count_] = in_arcs_.size();
  out_off_[node_count_] = out_arcs_.size();
}

}  // namespace medcc::dag
