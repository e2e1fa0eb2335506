// Allocation-free CPM evaluation kernels over a FlatDag: the one engine
// every solver scores makespans with.
//
// The legacy dag::compute_cpm re-validates inputs, recomputes the
// topological order and allocates six fresh vectors per call; it remains
// only as the independent reference these kernels are tested against.
// Here the work is split:
//
//  * FlatDag construction pays validation + topo order once per instance;
//  * CpmWorkspace owns every buffer, so repeated calls are allocation-free
//    once warmed up;
//  * makespan_into() runs only the forward pass (no backward pass, no
//    slack, no critical-path extraction) -- what candidate-move probes and
//    metaheuristic fitness need;
//  * cpm_into() adds the backward pass and criticality flags -- what
//    Critical-Greedy needs per round;
//  * export_result() materialises a CpmResult identical -- bit for bit,
//    including the extracted critical path -- to what compute_cpm returns
//    for the same graph and weights.
//
// The caller idiom for trying a move: write the candidate weight into
// ws.weights, run a pass, and put the old weight back if the move is
// rejected. Each pass is a full O(V + E) sweep over contiguous arrays;
// the passes use the same max/min/plus recurrences in the same operand
// order as compute_cpm, so results are bitwise-identical to it.
//
// Thread-safety: FlatDag is immutable after construction and may be shared
// freely across threads; each thread must use its own CpmWorkspace.
#pragma once

#include <span>
#include <vector>

#include "dag/critical_path.hpp"
#include "dag/flat_dag.hpp"

namespace medcc::dag {

/// Reusable buffers for the CPM kernels. All vectors are sized to the
/// graph's node count by the kernel entry points; reusing one workspace
/// across calls (and even across graphs of different sizes) never touches
/// the heap once the high-water capacity is reached.
struct CpmWorkspace {
  std::vector<double> weights;  ///< current node weights (kernel-owned copy)
  std::vector<double> est;
  std::vector<double> eft;
  std::vector<double> lst;  ///< valid only after cpm_into
  std::vector<double> lft;
  std::vector<char> critical;  ///< valid only while backward_valid
  double makespan = 0.0;
  double tol = 0.0;  ///< criticality tolerance; tracks makespan
  /// True while lst/lft/critical match weights (set by cpm_into, cleared
  /// by the forward-only pass).
  bool backward_valid = false;

  /// Ensures every buffer is sized for `nodes`; cheap when unchanged.
  void prepare(std::size_t nodes);
};

/// Forward pass only: fills ws.est/eft/makespan from `node_weights`
/// (copied into ws.weights). Invalidates the backward state. Returns the
/// makespan. Allocation-free at steady state.
double makespan_into(const FlatDag& graph, std::span<const double> node_weights,
                     CpmWorkspace& ws);

/// As above but reads the weights the caller already stored in ws.weights
/// (sized via ws.prepare(graph.node_count())), skipping the copy.
double makespan_into(const FlatDag& graph, CpmWorkspace& ws);

/// Forward + backward pass + criticality flags (no path extraction).
void cpm_into(const FlatDag& graph, std::span<const double> node_weights,
              CpmWorkspace& ws);

/// As above, reading weights from ws.weights.
void cpm_into(const FlatDag& graph, CpmWorkspace& ws);

/// Builds the full CpmResult (buffer, critical flags, extracted critical
/// path) from a workspace previously filled by cpm_into.
/// Bitwise-identical to compute_cpm on the same inputs. Allocates (it
/// returns an owning result).
[[nodiscard]] CpmResult export_result(const FlatDag& graph,
                                      const CpmWorkspace& ws);

}  // namespace medcc::dag
