#include "graph/components.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace sgr {
namespace {

TEST(ComponentsTest, SingleComponent) {
  const Graph g = GenerateCycle(5);
  const ComponentsResult r = ConnectedComponents(g);
  EXPECT_EQ(r.sizes.size(), 1u);
  EXPECT_EQ(r.sizes[0], 5u);
  EXPECT_TRUE(IsConnected(g));
}

TEST(ComponentsTest, DisconnectedPieces) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  // node 5 isolated
  const ComponentsResult r = ConnectedComponents(g);
  EXPECT_EQ(r.sizes.size(), 3u);
  EXPECT_EQ(CountComponents(g), 3u);
  EXPECT_FALSE(IsConnected(g));
  EXPECT_EQ(r.sizes[r.largest], 3u);
}

TEST(ComponentsTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(CountComponents(g), 0u);
  EXPECT_FALSE(IsConnected(g));
  const Graph lcc = LargestConnectedComponent(g);
  EXPECT_EQ(lcc.NumNodes(), 0u);
}

TEST(ComponentsTest, LargestComponentExtraction) {
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(5, 6);
  std::vector<NodeId> mapping;
  const Graph lcc = LargestConnectedComponent(g, &mapping);
  EXPECT_EQ(lcc.NumNodes(), 3u);
  EXPECT_EQ(lcc.NumEdges(), 3u);
  EXPECT_NE(mapping[0], kNotInLcc);
  EXPECT_NE(mapping[1], kNotInLcc);
  EXPECT_NE(mapping[2], kNotInLcc);
  EXPECT_EQ(mapping[3], kNotInLcc);
  EXPECT_EQ(mapping[5], kNotInLcc);
}

TEST(ComponentsTest, LccPreservesMultiEdgesWithin) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const Graph lcc = LargestConnectedComponent(g);
  EXPECT_EQ(lcc.NumNodes(), 2u);
  EXPECT_EQ(lcc.NumEdges(), 2u);
}

TEST(ComponentsTest, PreprocessMatchesPaperPipeline) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);  // parallel -> collapses
  g.AddEdge(1, 1);  // loop -> dropped
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);  // smaller component -> dropped
  const Graph p = PreprocessDataset(g);
  EXPECT_TRUE(p.IsSimple());
  EXPECT_EQ(p.NumNodes(), 3u);
  EXPECT_EQ(p.NumEdges(), 2u);
  EXPECT_TRUE(IsConnected(p));
}

TEST(ComponentsTest, ComponentOfIsConsistentWithSizes) {
  Rng rng(11);
  Graph g = GenerateErdosRenyiGnm(60, 40, rng);  // likely disconnected
  const ComponentsResult r = ConnectedComponents(g);
  std::vector<std::size_t> recount(r.sizes.size(), 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_LT(r.component_of[v], r.sizes.size());
    ++recount[r.component_of[v]];
  }
  EXPECT_EQ(recount, r.sizes);
}

TEST(ComponentsTest, FollowsSwapsThroughLoopsAndParallelEdges) {
  // Two disjoint triangles. The 2-swap (0,1),(3,4) -> (0,4),(3,1) splices
  // them into one 6-cycle; its inverse splits them again; a third swap
  // turns (3,4),(5,3) into the loop (3,3) plus the doubled edge (4,5),
  // leaving node 3 a component of its own.
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  EXPECT_EQ(CountComponents(g), 2u);

  g.ReplaceEdge(0, 0, 4);
  g.ReplaceEdge(3, 3, 1);
  ComponentsResult r = ConnectedComponents(g);
  EXPECT_EQ(r.sizes.size(), 1u);
  EXPECT_EQ(r.sizes[r.largest], 6u);

  g.ReplaceEdge(0, 0, 1);
  g.ReplaceEdge(3, 3, 4);
  r = ConnectedComponents(g);
  EXPECT_EQ(r.sizes.size(), 2u);
  EXPECT_EQ(r.sizes[r.largest], 3u);

  g.ReplaceEdge(3, 3, 3);
  g.ReplaceEdge(5, 5, 4);
  r = ConnectedComponents(g);
  EXPECT_EQ(r.sizes.size(), 3u);
  EXPECT_EQ(r.sizes[r.component_of[3]], 1u);
  EXPECT_EQ(r.sizes[r.component_of[4]], 2u);
  EXPECT_EQ(r.sizes[r.largest], 3u);
}

}  // namespace
}  // namespace sgr
