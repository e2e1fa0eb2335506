#include "dag/cpm_kernel.hpp"

#include <algorithm>
#include <cmath>

namespace medcc::dag {
namespace {

/// Forward pass over ws.weights: est(v) = max over preds u of
/// eft(u) + w(u->v); fills est/eft and the makespan.
void forward_pass(const FlatDag& graph, CpmWorkspace& ws) {
  ws.makespan = 0.0;
  for (NodeId v : graph.topo_order()) {
    double start = 0.0;
    for (const FlatArc& arc : graph.in_arcs(v))
      start = std::max(start, ws.eft[arc.node] + arc.weight);
    ws.est[v] = start;
    ws.eft[v] = start + ws.weights[v];
    ws.makespan = std::max(ws.makespan, ws.eft[v]);
  }
}

/// Backward pass from the current makespan, lft(v) = min over succs s of
/// lst(s) - w(v->s), plus the criticality flags.
void backward_pass(const FlatDag& graph, CpmWorkspace& ws) {
  const auto topo = graph.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    double finish = ws.makespan;
    for (const FlatArc& arc : graph.out_arcs(v))
      finish = std::min(finish, ws.lst[arc.node] - arc.weight);
    ws.lft[v] = finish;
    ws.lst[v] = finish - ws.weights[v];
  }
  ws.tol = kCpmSlackTolerance * std::max(1.0, ws.makespan);
  const std::size_t n = graph.node_count();
  for (NodeId v = 0; v < n; ++v)
    ws.critical[v] = (ws.lst[v] - ws.est[v]) <= ws.tol ? 1 : 0;
}

void copy_weights(std::span<const double> node_weights, CpmWorkspace& ws) {
  std::copy(node_weights.begin(), node_weights.end(), ws.weights.begin());
}

}  // namespace

void CpmWorkspace::prepare(std::size_t nodes) {
  if (weights.size() == nodes) return;
  weights.resize(nodes);
  est.resize(nodes);
  eft.resize(nodes);
  lst.resize(nodes);
  lft.resize(nodes);
  critical.resize(nodes);
  backward_valid = false;
}

double makespan_into(const FlatDag& graph, std::span<const double> node_weights,
                     CpmWorkspace& ws) {
  MEDCC_EXPECTS(node_weights.size() == graph.node_count());
  ws.prepare(graph.node_count());
  copy_weights(node_weights, ws);
  return makespan_into(graph, ws);
}

double makespan_into(const FlatDag& graph, CpmWorkspace& ws) {
  MEDCC_EXPECTS(ws.weights.size() == graph.node_count());
  forward_pass(graph, ws);
  ws.backward_valid = false;
  return ws.makespan;
}

void cpm_into(const FlatDag& graph, std::span<const double> node_weights,
              CpmWorkspace& ws) {
  MEDCC_EXPECTS(node_weights.size() == graph.node_count());
  ws.prepare(graph.node_count());
  copy_weights(node_weights, ws);
  cpm_into(graph, ws);
}

void cpm_into(const FlatDag& graph, CpmWorkspace& ws) {
  MEDCC_EXPECTS(ws.weights.size() == graph.node_count());
  forward_pass(graph, ws);
  backward_pass(graph, ws);
  ws.backward_valid = true;
}

CpmResult export_result(const FlatDag& graph, const CpmWorkspace& ws) {
  MEDCC_EXPECTS(ws.backward_valid);
  const std::size_t n = graph.node_count();
  MEDCC_EXPECTS(ws.weights.size() == n);

  CpmResult r;
  r.est.assign(ws.est.begin(), ws.est.end());
  r.eft.assign(ws.eft.begin(), ws.eft.end());
  r.lst.assign(ws.lst.begin(), ws.lst.end());
  r.lft.assign(ws.lft.begin(), ws.lft.end());
  r.buffer.resize(n);
  r.critical.resize(n);
  r.makespan = ws.makespan;
  for (NodeId v = 0; v < n; ++v) {
    r.buffer[v] = ws.lst[v] - ws.est[v];
    r.critical[v] = ws.critical[v] != 0;
  }

  // Critical-path extraction, byte-compatible with compute_cpm: start at
  // the first zero-est critical source, then repeatedly step to the first
  // critical successor reached through a tight edge.
  const double tol = ws.tol;
  NodeId cursor = n;  // sentinel
  for (NodeId v = 0; v < n; ++v) {
    if (r.critical[v] && graph.in_degree(v) == 0 && r.est[v] <= tol) {
      cursor = v;
      break;
    }
  }
  while (cursor < n) {
    r.critical_path.push_back(cursor);
    NodeId next = n;
    for (const FlatArc& arc : graph.out_arcs(cursor)) {
      const bool tight_edge =
          std::abs(r.est[arc.node] - (r.eft[cursor] + arc.weight)) <= tol;
      if (r.critical[arc.node] && tight_edge) {
        next = arc.node;
        break;
      }
    }
    cursor = next;
  }
  return r;
}

}  // namespace medcc::dag
