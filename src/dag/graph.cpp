#include "dag/graph.hpp"

#include <algorithm>
#include <queue>
#include <utility>

namespace medcc::dag {

Dag::Dag(const Dag& other)
    : edges_(other.edges_), out_(other.out_), in_(other.in_) {
  set_topo_cache(other.topo_cache_snapshot());
}

Dag& Dag::operator=(const Dag& other) {
  if (this == &other) return *this;
  auto cache = other.topo_cache_snapshot();
  edges_ = other.edges_;
  out_ = other.out_;
  in_ = other.in_;
  set_topo_cache(std::move(cache));
  return *this;
}

Dag::Dag(Dag&& other) noexcept
    : edges_(std::move(other.edges_)),
      out_(std::move(other.out_)),
      in_(std::move(other.in_)) {
  set_topo_cache(other.topo_cache_snapshot());
}

Dag& Dag::operator=(Dag&& other) noexcept {
  if (this == &other) return *this;
  auto cache = other.topo_cache_snapshot();
  edges_ = std::move(other.edges_);
  out_ = std::move(other.out_);
  in_ = std::move(other.in_);
  set_topo_cache(std::move(cache));
  return *this;
}

Dag::TopoCache Dag::topo_cache_snapshot() const {
  const util::MutexLock lock(topo_mutex_);
  return topo_cache_;
}

void Dag::set_topo_cache(TopoCache cache) {
  const util::MutexLock lock(topo_mutex_);
  topo_cached_.store(cache != nullptr);
  topo_cache_ = std::move(cache);
}

void Dag::invalidate_topo_cache() {
  if (!topo_cached_.load()) return;
  set_topo_cache(nullptr);
}

void Dag::reserve(std::size_t nodes, std::size_t edges) {
  out_.reserve(nodes);
  in_.reserve(nodes);
  edges_.reserve(edges);
}

NodeId Dag::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  invalidate_topo_cache();
  return out_.size() - 1;
}

EdgeId Dag::add_edge(NodeId src, NodeId dst) {
  MEDCC_EXPECTS(src < node_count());
  MEDCC_EXPECTS(dst < node_count());
  if (src == dst) throw InvalidArgument("Dag: self-loop rejected");
  if (has_edge(src, dst)) throw InvalidArgument("Dag: parallel edge rejected");
  edges_.push_back(Edge{src, dst});
  const EdgeId id = edges_.size() - 1;
  out_[src].push_back(id);
  in_[dst].push_back(id);
  invalidate_topo_cache();
  return id;
}

bool Dag::has_edge(NodeId src, NodeId dst) const {
  MEDCC_EXPECTS(src < node_count());
  MEDCC_EXPECTS(dst < node_count());
  // Scan the smaller adjacency list.
  if (out_[src].size() <= in_[dst].size()) {
    return std::any_of(out_[src].begin(), out_[src].end(),
                       [&](EdgeId e) { return edges_[e].dst == dst; });
  }
  return std::any_of(in_[dst].begin(), in_[dst].end(),
                     [&](EdgeId e) { return edges_[e].src == src; });
}

std::vector<NodeId> Dag::successors(NodeId node) const {
  std::vector<NodeId> result;
  result.reserve(out_degree(node));
  for (EdgeId e : out_edges(node)) result.push_back(edges_[e].dst);
  return result;
}

std::vector<NodeId> Dag::predecessors(NodeId node) const {
  std::vector<NodeId> result;
  result.reserve(in_degree(node));
  for (EdgeId e : in_edges(node)) result.push_back(edges_[e].src);
  return result;
}

std::vector<NodeId> Dag::sources() const {
  std::vector<NodeId> result;
  for (NodeId v = 0; v < node_count(); ++v)
    if (in_degree(v) == 0) result.push_back(v);
  return result;
}

std::vector<NodeId> Dag::sinks() const {
  std::vector<NodeId> result;
  for (NodeId v = 0; v < node_count(); ++v)
    if (out_degree(v) == 0) result.push_back(v);
  return result;
}

std::optional<std::vector<NodeId>> Dag::topological_order() const {
  const util::MutexLock lock(topo_mutex_);
  if (!topo_cache_) {
    topo_cache_ = std::make_shared<const std::optional<std::vector<NodeId>>>(
        compute_topological_order());
    topo_cached_.store(true);
  }
  return *topo_cache_;
}

std::optional<std::vector<NodeId>> Dag::compute_topological_order() const {
  std::vector<std::size_t> pending(node_count());
  std::queue<NodeId> ready;
  for (NodeId v = 0; v < node_count(); ++v) {
    pending[v] = in_degree(v);
    if (pending[v] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(node_count());
  while (!ready.empty()) {
    const NodeId v = ready.front();
    ready.pop();
    order.push_back(v);
    for (EdgeId e : out_edges(v)) {
      const NodeId succ = edges_[e].dst;
      if (--pending[succ] == 0) ready.push(succ);
    }
  }
  if (order.size() != node_count()) return std::nullopt;  // cycle
  return order;
}

std::vector<bool> Dag::reachable_set(NodeId origin) const {
  MEDCC_EXPECTS(origin < node_count());
  std::vector<bool> seen(node_count(), false);
  std::queue<NodeId> frontier;
  seen[origin] = true;
  frontier.push(origin);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (EdgeId e : out_edges(v)) {
      const NodeId succ = edges_[e].dst;
      if (!seen[succ]) {
        seen[succ] = true;
        frontier.push(succ);
      }
    }
  }
  return seen;
}

std::vector<EdgeId> Dag::redundant_edges() const {
  // Edge (u,v) is redundant iff v is reachable from u without using (u,v);
  // equivalently, reachable from some other successor of u.
  std::vector<EdgeId> result;
  for (NodeId u = 0; u < node_count(); ++u) {
    if (out_degree(u) < 2) continue;
    // Union of reachability from all successors of u.
    std::vector<bool> via_other(node_count(), false);
    for (EdgeId e : out_edges(u)) {
      const auto seen = reachable_set(edges_[e].dst);
      for (NodeId v = 0; v < node_count(); ++v)
        if (seen[v] && v != edges_[e].dst) via_other[v] = true;
    }
    for (EdgeId e : out_edges(u))
      if (via_other[edges_[e].dst]) result.push_back(e);
  }
  return result;
}

}  // namespace medcc::dag
