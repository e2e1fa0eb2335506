// Differential tests for the allocation-free CPM kernel
// (dag/flat_dag.hpp + dag/cpm_kernel.hpp) against the legacy
// dag::compute_cpm reference:
//
//  * export_result() must match compute_cpm bit for bit on random DAGs,
//    including the extracted critical path;
//  * the solvers' set/rerun/restore probe idiom must match a fresh
//    reference after every in-place weight change;
//  * one workspace reused across graphs of different sizes must keep
//    producing reference results;
//  * steady-state kernel calls must not touch the heap (verified by a
//    counting global operator new).
#include "dag/cpm_kernel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "dag/critical_path.hpp"
#include "util/prng.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every global allocation in this binary bumps the
// counter. Tests snapshot it around a warmed-up op sequence to prove the
// kernels are allocation-free at steady state.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_alloc_count{0};

std::size_t allocation_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using medcc::dag::CpmWorkspace;
using medcc::dag::compute_cpm;
using medcc::dag::Dag;
using medcc::dag::FlatDag;
using medcc::dag::NodeId;

struct RandomCase {
  Dag graph{0};
  std::vector<double> weights;
  std::vector<double> edge_weights;  ///< empty for half the seeds
};

/// Seeded random DAG: upper-triangular edges, weights in [0, 10], edge
/// delays in [0, 3] (or the empty all-zero convention).
RandomCase random_case(std::uint64_t seed) {
  medcc::util::Prng rng(seed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 16));
  RandomCase c{Dag(n), {}, {}};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.3)) c.graph.add_edge(i, j);
  c.weights.resize(n);
  for (auto& w : c.weights) w = rng.uniform_real(0.0, 10.0);
  if (rng.bernoulli(0.5)) {
    c.edge_weights.resize(c.graph.edge_count());
    for (auto& w : c.edge_weights) w = rng.uniform_real(0.0, 3.0);
  }
  return c;
}

class KernelDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(KernelDifferentialTest, ExportMatchesComputeCpmBitwise) {
  const auto c = random_case(GetParam());
  const auto ref = compute_cpm(c.graph, c.weights, c.edge_weights);

  const FlatDag flat(c.graph, c.edge_weights);
  CpmWorkspace ws;
  medcc::dag::cpm_into(flat, c.weights, ws);
  const auto got = medcc::dag::export_result(flat, ws);

  EXPECT_EQ(got.est, ref.est);
  EXPECT_EQ(got.eft, ref.eft);
  EXPECT_EQ(got.lst, ref.lst);
  EXPECT_EQ(got.lft, ref.lft);
  EXPECT_EQ(got.buffer, ref.buffer);
  EXPECT_EQ(got.critical, ref.critical);
  EXPECT_EQ(got.critical_path, ref.critical_path);
  EXPECT_EQ(got.makespan, ref.makespan);

  // The forward-only fast path agrees with the full pass.
  CpmWorkspace ws2;
  EXPECT_EQ(medcc::dag::makespan_into(flat, c.weights, ws2), ref.makespan);
}

TEST_P(KernelDifferentialTest, ProbeAndRestoreMatchesComputeCpm) {
  // The solvers' move-probe idiom: write one candidate weight into
  // ws.weights, rerun the pass, put the old weight back. Every probe must
  // equal a fresh reference on the modified weights, and the restore must
  // leave the workspace scoring the original weights again.
  const auto c = random_case(GetParam());
  const FlatDag flat(c.graph, c.edge_weights);
  medcc::util::Prng rng(GetParam() * 7919 + 1);
  CpmWorkspace ws;
  const double base = medcc::dag::makespan_into(flat, c.weights, ws);
  auto probed = c.weights;
  for (NodeId v = 0; v < c.graph.node_count(); ++v) {
    const double w = rng.bernoulli(0.15) ? 0.0 : rng.uniform_real(0.0, 12.0);
    probed[v] = w;
    ws.weights[v] = w;
    EXPECT_EQ(medcc::dag::makespan_into(flat, ws),
              compute_cpm(c.graph, probed, c.edge_weights).makespan)
        << "node " << v;
    probed[v] = c.weights[v];
    ws.weights[v] = c.weights[v];
  }
  EXPECT_EQ(medcc::dag::makespan_into(flat, ws), base);

  // Full passes after in-place edits track the reference, criticality
  // flags and critical path included.
  for (NodeId v = 0; v < c.graph.node_count(); ++v) {
    ws.weights[v] = probed[v] = rng.uniform_real(0.0, 12.0);
    medcc::dag::cpm_into(flat, ws);
    const auto ref = compute_cpm(c.graph, probed, c.edge_weights);
    const auto got = medcc::dag::export_result(flat, ws);
    EXPECT_EQ(got.lst, ref.lst) << "node " << v;
    EXPECT_EQ(got.critical, ref.critical) << "node " << v;
    EXPECT_EQ(got.critical_path, ref.critical_path) << "node " << v;
    EXPECT_EQ(got.makespan, ref.makespan) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(CpmKernel, WorkspaceReusableAcrossGraphs) {
  // One workspace, many graphs of different sizes, interleaved: prepare()
  // must resize correctly and never leak state from the previous graph.
  CpmWorkspace ws;
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const auto c = random_case(seed);
    const FlatDag flat(c.graph, c.edge_weights);
    medcc::dag::cpm_into(flat, c.weights, ws);
    const auto ref = compute_cpm(c.graph, c.weights, c.edge_weights);
    const auto got = medcc::dag::export_result(flat, ws);
    EXPECT_EQ(got.est, ref.est) << "seed " << seed;
    EXPECT_EQ(got.lft, ref.lft) << "seed " << seed;
    EXPECT_EQ(got.critical_path, ref.critical_path) << "seed " << seed;
    EXPECT_EQ(got.makespan, ref.makespan) << "seed " << seed;
  }
}

TEST(CpmKernel, EmptyGraph) {
  const Dag g(0);
  const FlatDag flat(g);
  EXPECT_EQ(flat.node_count(), 0u);
  CpmWorkspace ws;
  EXPECT_EQ(medcc::dag::makespan_into(flat, std::vector<double>{}, ws), 0.0);
  medcc::dag::cpm_into(flat, std::vector<double>{}, ws);
  const auto got = medcc::dag::export_result(flat, ws);
  const auto ref = compute_cpm(g, std::vector<double>{});
  EXPECT_EQ(got.makespan, ref.makespan);
  EXPECT_EQ(got.critical_path, ref.critical_path);
}

TEST(CpmKernel, SingleNode) {
  const Dag g(1);
  const FlatDag flat(g);
  CpmWorkspace ws;
  medcc::dag::cpm_into(flat, std::vector<double>{3.0}, ws);
  EXPECT_EQ(ws.makespan, 3.0);
  medcc::dag::cpm_into(flat, std::vector<double>{0.0}, ws);
  const auto got = medcc::dag::export_result(flat, ws);
  const auto ref = compute_cpm(g, std::vector<double>{0.0});
  EXPECT_EQ(got.critical, ref.critical);
  EXPECT_EQ(got.critical_path, ref.critical_path);
  EXPECT_EQ(got.makespan, 0.0);
}

TEST(CpmKernel, FlatDagRejectsBadInputs) {
  Dag cyc(2);
  cyc.add_edge(0, 1);
  cyc.add_edge(1, 0);
  EXPECT_THROW((void)FlatDag(cyc), medcc::InvalidArgument);

  Dag g(2);
  g.add_edge(0, 1);
  EXPECT_THROW((void)FlatDag(g, std::vector<double>{1.0, 2.0}),
               medcc::InvalidArgument);  // edge-weight size mismatch
  EXPECT_THROW((void)FlatDag(g, std::vector<double>{-1.0}),
               medcc::InvalidArgument);  // negative edge weight
}

TEST(CpmKernelAlloc, SteadyStateKernelsAreAllocationFree) {
  const auto c = random_case(42);
  const std::size_t n = c.graph.node_count();
  ASSERT_GE(n, 2u);
  const FlatDag flat(c.graph, c.edge_weights);
  CpmWorkspace ws;
  auto perturbed = c.weights;
  for (auto& w : perturbed) w *= 0.5;
  const NodeId a = 0;

  // One deterministic op sequence covering every kernel entry point. The
  // first run warms the workspace to its high-water capacity; the second,
  // identical run must not allocate at all.
  const auto run_ops = [&] {
    double acc = medcc::dag::makespan_into(flat, c.weights, ws);
    // The probe idiom: set one weight in place, rerun, restore.
    ws.weights[a] = 5.0;
    acc += medcc::dag::makespan_into(flat, ws);
    ws.weights[a] = c.weights[a];
    medcc::dag::cpm_into(flat, c.weights, ws);
    ws.weights[a] = 0.0;
    medcc::dag::cpm_into(flat, ws);
    acc += ws.makespan;
    medcc::dag::cpm_into(flat, perturbed, ws);
    return acc + ws.makespan;
  };

  const double warm = run_ops();
  const std::size_t before = allocation_count();
  const double measured = run_ops();
  const std::size_t after = allocation_count();

  EXPECT_EQ(after, before) << "steady-state kernel calls touched the heap";
  EXPECT_EQ(warm, measured);
}

}  // namespace
