#include "dag/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "util/prng.hpp"

namespace {

using medcc::dag::Dag;
using medcc::dag::NodeId;

Dag diamond() {
  Dag g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Dag, EmptyGraph) {
  Dag g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.is_acyclic());
}

TEST(Dag, AddNodesAndEdges) {
  Dag g(3);
  EXPECT_EQ(g.node_count(), 3u);
  const auto e = g.add_edge(0, 2);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge(e).src, 0u);
  EXPECT_EQ(g.edge(e).dst, 2u);
  const auto n = g.add_node();
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(g.node_count(), 4u);
}

TEST(Dag, DegreesAndAdjacency) {
  const auto g = diamond();
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  const auto succ = g.successors(0);
  EXPECT_EQ(std::set<NodeId>(succ.begin(), succ.end()),
            (std::set<NodeId>{1, 2}));
  const auto pred = g.predecessors(3);
  EXPECT_EQ(std::set<NodeId>(pred.begin(), pred.end()),
            (std::set<NodeId>{1, 2}));
}

TEST(Dag, HasEdge) {
  const auto g = diamond();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Dag, SelfLoopRejected) {
  Dag g(2);
  EXPECT_THROW((void)g.add_edge(1, 1), medcc::InvalidArgument);
}

TEST(Dag, ParallelEdgeRejected) {
  Dag g(2);
  g.add_edge(0, 1);
  EXPECT_THROW((void)g.add_edge(0, 1), medcc::InvalidArgument);
}

TEST(Dag, OutOfRangeNodesRejected) {
  Dag g(2);
  EXPECT_THROW((void)g.add_edge(0, 5), medcc::LogicError);
}

TEST(Dag, SourcesAndSinks) {
  const auto g = diamond();
  EXPECT_EQ(g.sources(), std::vector<NodeId>{0});
  EXPECT_EQ(g.sinks(), std::vector<NodeId>{3});
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const auto g = diamond();
  const auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(g.node_count());
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  for (std::size_t e = 0; e < g.edge_count(); ++e)
    EXPECT_LT(pos[g.edge(e).src], pos[g.edge(e).dst]);
}

TEST(Dag, CycleDetected) {
  Dag g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(g.is_acyclic());
  EXPECT_FALSE(g.topological_order().has_value());
}

TEST(Dag, Reachability) {
  const auto g = diamond();
  EXPECT_TRUE(g.reachable_set(0)[3]);
  EXPECT_TRUE(g.reachable_set(0)[0]);
  EXPECT_FALSE(g.reachable_set(1)[2]);
  EXPECT_FALSE(g.reachable_set(3)[0]);
}

TEST(Dag, ReachableSet) {
  const auto g = diamond();
  const auto from1 = g.reachable_set(1);
  EXPECT_TRUE(from1[1]);
  EXPECT_TRUE(from1[3]);
  EXPECT_FALSE(from1[0]);
  EXPECT_FALSE(from1[2]);
}

TEST(Dag, RedundantEdgeFound) {
  Dag g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto direct = g.add_edge(0, 2);  // implied by 0->1->2
  const auto redundant = g.redundant_edges();
  ASSERT_EQ(redundant.size(), 1u);
  EXPECT_EQ(redundant.front(), direct);
}

TEST(Dag, DiamondHasNoRedundantEdges) {
  EXPECT_TRUE(diamond().redundant_edges().empty());
}

// Property sweep over random forward DAGs.
class DagPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DagPropertyTest, RandomForwardDagInvariants) {
  medcc::util::Prng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 30));
  Dag g(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.3)) g.add_edge(i, j);

  // Forward construction is always acyclic and the topological order is a
  // permutation respecting every edge.
  const auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), n);
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[(*order)[i]] = i;
  for (std::size_t e = 0; e < g.edge_count(); ++e)
    EXPECT_LT(pos[g.edge(e).src], pos[g.edge(e).dst]);

  // Degree sums match the edge count.
  std::size_t in_sum = 0, out_sum = 0;
  for (NodeId v = 0; v < n; ++v) {
    in_sum += g.in_degree(v);
    out_sum += g.out_degree(v);
  }
  EXPECT_EQ(in_sum, g.edge_count());
  EXPECT_EQ(out_sum, g.edge_count());

  // Reachability is transitive along sampled chains.
  for (std::size_t e = 0; e < g.edge_count(); ++e)
    EXPECT_TRUE(g.reachable_set(g.edge(e).src)[g.edge(e).dst]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// A graph copied while its order is memoized shares the memo until it
// mutates; a mutation then drops only its own copy's order.
TEST(Dag, CopiedMemoInvalidatedOnlyInTheMutatedCopy) {
  Dag g(3);
  g.add_edge(0, 1);
  ASSERT_EQ(g.topological_order()->size(), 3u);
  Dag copy = g;
  const NodeId fresh = copy.add_node();
  copy.add_edge(fresh, 2);
  ASSERT_EQ(copy.topological_order()->size(), 4u);
  EXPECT_EQ(g.topological_order()->size(), 3u);
  copy.add_edge(2, fresh);
  EXPECT_FALSE(copy.is_acyclic());
  EXPECT_TRUE(g.is_acyclic());
  g = copy;
  EXPECT_FALSE(g.is_acyclic());
}

// Regression for the topo-order memo under TSan: many readers hitting the
// first (cache-filling) call at once, with single-threaded add_edge
// invalidation between rounds -- the documented usage contract. Each
// reader validates its snapshot in full, so a torn or stale cache shows
// up as an ordering violation even without TSan.
TEST(Dag, TopologicalOrderConcurrentFirstCallAndInvalidation) {
  constexpr std::size_t kNodes = 64;
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 25;

  Dag g(kNodes);
  for (NodeId v = 0; v + 1 < kNodes; ++v) g.add_edge(v, v + 1);

  medcc::util::Prng rng(2013);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::thread> readers;
    readers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&g] {
        for (int call = 0; call < kCallsPerThread; ++call) {
          const auto order = g.topological_order();
          ASSERT_TRUE(order.has_value());
          ASSERT_EQ(order->size(), g.node_count());
          std::vector<std::size_t> pos(g.node_count());
          for (std::size_t i = 0; i < order->size(); ++i)
            pos[(*order)[i]] = i;
          for (std::size_t e = 0; e < g.edge_count(); ++e)
            ASSERT_LT(pos[g.edge(e).src], pos[g.edge(e).dst]);
        }
      });
    }
    for (auto& reader : readers) reader.join();

    // Mutate between rounds (readers joined: external synchronization as
    // documented on Dag). The next round's first reader repopulates the
    // invalidated memo concurrently with its peers.
    const NodeId fresh = g.add_node();
    const auto src = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<int>(g.node_count()) - 2));
    g.add_edge(src, fresh);  // an edge into a fresh sink is never parallel
  }
}

}  // namespace
