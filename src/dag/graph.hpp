// A compact directed-acyclic-graph container.
//
// Nodes are dense indices [0, node_count). Edges are stored once and
// indexed from both endpoints, so forward (est/eft) and backward (lst/lft)
// passes are O(V + E). The container itself does not prevent cycles while
// edges are being added; validate() / topological_order() detect them.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/mutex.hpp"

namespace medcc::dag {

using NodeId = std::size_t;
using EdgeId = std::size_t;

/// A directed edge from `src` to `dst`.
struct Edge {
  NodeId src;
  NodeId dst;
};

class Dag {
public:
  Dag() = default;
  /// Creates a graph with `nodes` isolated nodes.
  explicit Dag(std::size_t nodes) : out_(nodes), in_(nodes) {}

  // The memoized topological order rides along on copy/move (it stays
  // valid for an identical edge set); the cache mutex itself does not.
  Dag(const Dag& other);
  Dag& operator=(const Dag& other);
  Dag(Dag&& other) noexcept;
  Dag& operator=(Dag&& other) noexcept;
  ~Dag() = default;

  [[nodiscard]] std::size_t node_count() const { return out_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// Reserves room for `nodes` nodes and `edges` edges in total (the
  /// per-node adjacency lists still grow as edges are added).
  void reserve(std::size_t nodes, std::size_t edges);

  /// Appends a new isolated node and returns its id.
  NodeId add_node();

  /// Adds the edge src->dst and returns its id.
  /// Parallel edges and self-loops are rejected.
  EdgeId add_edge(NodeId src, NodeId dst);

  /// True if the edge src->dst exists.
  [[nodiscard]] bool has_edge(NodeId src, NodeId dst) const;

  /// Edge ids leaving / entering `node`.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId node) const {
    MEDCC_EXPECTS(node < node_count());
    return out_[node];
  }
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId node) const {
    MEDCC_EXPECTS(node < node_count());
    return in_[node];
  }

  [[nodiscard]] const Edge& edge(EdgeId id) const {
    MEDCC_EXPECTS(id < edges_.size());
    return edges_[id];
  }

  [[nodiscard]] std::size_t out_degree(NodeId node) const {
    return out_edges(node).size();
  }
  [[nodiscard]] std::size_t in_degree(NodeId node) const {
    return in_edges(node).size();
  }

  /// Successor / predecessor node ids (materialized).
  [[nodiscard]] std::vector<NodeId> successors(NodeId node) const;
  [[nodiscard]] std::vector<NodeId> predecessors(NodeId node) const;

  /// Nodes with no incoming / outgoing edges.
  [[nodiscard]] std::vector<NodeId> sources() const;
  [[nodiscard]] std::vector<NodeId> sinks() const;

  /// Kahn topological order, or nullopt if the graph contains a cycle.
  /// Memoized: the first call computes and caches the order (thread-safe;
  /// concurrent readers share the cached copy), mutation via add_node /
  /// add_edge invalidates it. A graph that has never published an order
  /// (one under construction) mutates without touching the cache lock.
  [[nodiscard]] std::optional<std::vector<NodeId>> topological_order() const;

  [[nodiscard]] bool is_acyclic() const {
    return topological_order().has_value();
  }

  /// Per-node reachability bitmap from `origin` (BFS).
  [[nodiscard]] std::vector<bool> reachable_set(NodeId origin) const;

  /// Ids of edges (u,v) for which another u->v path exists; removing them
  /// leaves an equivalent precedence relation (transitive reduction).
  [[nodiscard]] std::vector<EdgeId> redundant_edges() const;

private:
  using TopoCache = std::shared_ptr<const std::optional<std::vector<NodeId>>>;

  [[nodiscard]] std::optional<std::vector<NodeId>>
  compute_topological_order() const;
  [[nodiscard]] TopoCache topo_cache_snapshot() const;
  void invalidate_topo_cache();
  void set_topo_cache(TopoCache cache);

  /// The graph structure itself is NOT internally synchronized:
  /// concurrent reads are safe, but add_node / add_edge require external
  /// synchronization like any other container. Only the topo-order cache
  /// below is protected, so concurrent *readers* may race on its first
  /// computation and share the published snapshot safely.
  MEDCC_NOT_GUARDED std::vector<Edge> edges_;
  MEDCC_NOT_GUARDED std::vector<std::vector<EdgeId>> out_;
  MEDCC_NOT_GUARDED std::vector<std::vector<EdgeId>> in_;
  /// Lazily computed topological order (or cached "has a cycle" verdict).
  /// The pointee is const: immutable once published, so readers can keep
  /// using a snapshot after invalidation swaps the pointer out.
  mutable TopoCache topo_cache_ MEDCC_GUARDED_BY(topo_mutex_);
  mutable util::Mutex topo_mutex_;
  /// True while topo_cache_ may be non-null. Set (under the lock) when an
  /// order is published, cleared when the cache is dropped. Mutation is
  /// externally synchronized with every other use of the graph, so a
  /// mutator that reads false knows there is nothing to drop and skips
  /// the lock; while it is set, invalidation takes the lock as before.
  mutable std::atomic<bool> topo_cached_{false};
};

}  // namespace medcc::dag
