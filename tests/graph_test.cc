// Unit tests for the graph module: digraphs, SCCs and periods — the
// certificates behind the paper's Section VI (primitive means strongly
// connected with period 1).

#include <gtest/gtest.h>

#include "graph/analysis.h"
#include "graph/digraph.h"

namespace eqimpact {
namespace {

using graph::Digraph;

Digraph Cycle(size_t n) {
  Digraph g(n);
  for (size_t v = 0; v < n; ++v) g.AddEdge(v, (v + 1) % n);
  return g;
}

TEST(DigraphTest, EdgesAndSuccessors) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.Successors(0).size(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(2, 0));
}

TEST(DigraphTest, ParallelEdgesAllowed) {
  Digraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Successors(0).size(), 2u);
}

TEST(DigraphTest, SelfLoopsAllowed) {
  Digraph g(1);
  g.AddEdge(0, 0);
  EXPECT_TRUE(g.HasEdge(0, 0));
}

TEST(SccTest, SingleComponentCycle) {
  graph::SccResult result = StronglyConnectedComponents(Cycle(5));
  EXPECT_EQ(result.components.size(), 1u);
  EXPECT_EQ(result.components[0].size(), 5u);
}

TEST(SccTest, ChainHasOneComponentPerVertex) {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  graph::SccResult result = StronglyConnectedComponents(g);
  EXPECT_EQ(result.components.size(), 4u);
}

TEST(SccTest, TwoCyclesJoinedByBridge) {
  Digraph g(6);
  // Cycle A: 0 -> 1 -> 2 -> 0; cycle B: 3 -> 4 -> 5 -> 3; bridge 2 -> 3.
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  g.AddEdge(2, 3);
  graph::SccResult result = StronglyConnectedComponents(g);
  EXPECT_EQ(result.components.size(), 2u);
  EXPECT_EQ(result.component_of[0], result.component_of[1]);
  EXPECT_EQ(result.component_of[3], result.component_of[5]);
  EXPECT_NE(result.component_of[0], result.component_of[3]);
}

TEST(SccTest, IsolatedVerticesAreSingletons) {
  Digraph g(3);
  graph::SccResult result = StronglyConnectedComponents(g);
  EXPECT_EQ(result.components.size(), 3u);
}

TEST(StrongConnectivityTest, CycleIsStronglyConnected) {
  EXPECT_TRUE(IsStronglyConnected(Cycle(7)));
}

TEST(StrongConnectivityTest, ChainIsNot) {
  Digraph g(2);
  g.AddEdge(0, 1);
  EXPECT_FALSE(IsStronglyConnected(g));
}

TEST(StrongConnectivityTest, EmptyGraphIsNot) {
  Digraph g(0);
  EXPECT_FALSE(IsStronglyConnected(g));
}

TEST(StrongConnectivityTest, SingleVertexWithLoop) {
  Digraph g(1);
  g.AddEdge(0, 0);
  EXPECT_TRUE(IsStronglyConnected(g));
}

TEST(PeriodTest, PureCycleHasPeriodN) {
  for (size_t n : {2u, 3u, 5u, 8u}) {
    EXPECT_EQ(Period(Cycle(n)), n) << "cycle length " << n;
  }
}

TEST(PeriodTest, SelfLoopForcesPeriodOne) {
  Digraph g = Cycle(4);
  g.AddEdge(0, 0);
  EXPECT_EQ(Period(g), 1u);
}

TEST(PeriodTest, TwoCyclesGcd) {
  // Cycles of length 4 and 6 through vertex 0: period gcd(4, 6) = 2.
  Digraph g(8);
  // 4-cycle: 0 1 2 3.
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  // 6-cycle: 0 4 5 6 7 3 (reusing 3 -> 0).
  g.AddEdge(0, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  g.AddEdge(6, 7);
  g.AddEdge(7, 3);
  EXPECT_EQ(Period(g), 2u);
}

TEST(PeriodTest, CoprimeCyclesGiveAperiodicGraph) {
  // 3-cycle plus a 2-cycle chord: gcd(3, 2) = 1, so the graph is
  // primitive.
  Digraph g = Cycle(3);
  g.AddEdge(1, 0);
  EXPECT_TRUE(IsStronglyConnected(g));
  EXPECT_EQ(Period(g), 1u);
}

// --- Parameterized sweeps ---------------------------------------------------

class CycleSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CycleSweep, CyclePropertiesHoldForAllLengths) {
  const size_t n = GetParam();
  Digraph g = Cycle(n);
  EXPECT_TRUE(IsStronglyConnected(g));
  EXPECT_EQ(Period(g), n);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CycleSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 12, 25));

class LoopedCycleSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(LoopedCycleSweep, AddingASelfLoopMakesAnyCyclePrimitive) {
  const size_t n = GetParam();
  Digraph g = Cycle(n);
  g.AddEdge(n / 2, n / 2);
  EXPECT_TRUE(IsStronglyConnected(g));
  EXPECT_EQ(Period(g), 1u);
}

INSTANTIATE_TEST_SUITE_P(Lengths, LoopedCycleSweep,
                         ::testing::Values(1, 2, 3, 5, 9, 17));

}  // namespace
}  // namespace eqimpact
