#include "dk/triangle_tracker.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dk/dk_extract.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// One 2-swap: remove (i, j) and (a, b), add (i, b) and (a, j).
struct Swap {
  EdgeId e1, e2;
  NodeId i, j, a, b;
};

/// Draws a 2-swap from two random edges of `g`, in a random orientation
/// of the second edge. Returns false for the no-op family (same edge,
/// i == a or j == b), which the rewirer never scores.
bool DrawSwap(const Graph& g, Rng& rng, Swap& s) {
  s.e1 = rng.NextIndex(g.NumEdges());
  s.e2 = rng.NextIndex(g.NumEdges());
  if (s.e1 == s.e2) return false;
  const Edge e1 = g.edge(s.e1);
  const Edge e2 = g.edge(s.e2);
  const bool flip = rng.NextBernoulli(0.5);
  s.i = e1.u;
  s.j = e1.v;
  s.a = flip ? e2.v : e2.u;
  s.b = flip ? e2.u : e2.v;
  return s.i != s.a && s.j != s.b;
}

/// Commits `s` to both the graph and the tracker.
void CommitSwap(Graph& g, TriangleTracker& tracker, const Swap& s) {
  tracker.ApplySwap(s.i, s.j, s.a, s.b);
  g.ReplaceEdge(s.e1, s.i, s.b);
  g.ReplaceEdge(s.e2, s.a, s.j);
}

std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

TEST(TriangleTrackerTest, InitialCountsMatchExtractor) {
  Rng rng(51);
  const Graph g = GeneratePowerlawCluster(200, 3, 0.6, rng);
  TriangleTracker tracker(g, {});
  const std::vector<std::int64_t> expected = CountTrianglesPerNode(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(tracker.triangles(v), expected[v]) << "node " << v;
  }
}

TEST(TriangleTrackerTest, AddEdgeCreatesTriangles) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  TriangleTracker tracker(g, {});
  EXPECT_EQ(tracker.triangles(1), 0);
  tracker.AddEdge(0, 2);  // closes the triangle
  EXPECT_EQ(tracker.triangles(0), 1);
  EXPECT_EQ(tracker.triangles(1), 1);
  EXPECT_EQ(tracker.triangles(2), 1);
}

TEST(TriangleTrackerTest, RemoveEdgeDestroysTriangles) {
  const Graph g = GenerateComplete(4);
  TriangleTracker tracker(g, {});
  EXPECT_EQ(tracker.triangles(0), 3);
  tracker.RemoveEdge(0, 1);
  // 0 keeps only triangle {0,2,3}.
  EXPECT_EQ(tracker.triangles(0), 1);
  EXPECT_EQ(tracker.triangles(1), 1);
  EXPECT_EQ(tracker.triangles(2), 2);
  EXPECT_EQ(tracker.triangles(3), 2);
}

TEST(TriangleTrackerTest, LoopsAreTriangleNeutral) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  TriangleTracker tracker(g, {});
  tracker.AddEdge(1, 1);
  EXPECT_EQ(tracker.triangles(1), 1);
  EXPECT_EQ(tracker.Multiplicity(1, 1), 2);
  tracker.RemoveEdge(1, 1);
  EXPECT_EQ(tracker.Multiplicity(1, 1), 0);
  EXPECT_EQ(tracker.triangles(1), 1);
}

TEST(TriangleTrackerTest, MultiEdgeWeights) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  TriangleTracker tracker(g, {});
  tracker.AddEdge(0, 1);  // double one side: triangle weight doubles
  EXPECT_EQ(tracker.triangles(2), 2);
  EXPECT_EQ(tracker.triangles(0), 2);
  tracker.RemoveEdge(0, 1);
  EXPECT_EQ(tracker.triangles(2), 1);
}

TEST(TriangleTrackerTest, ClassTrianglesTrackDegrees) {
  const Graph g = GenerateComplete(4);  // all degree 3, 4 triangles total
  TriangleTracker tracker(g, {});
  EXPECT_EQ(tracker.ClassTriangles(3), 4 * 3);
  EXPECT_EQ(tracker.ClassTriangles(2), 0);
}

TEST(TriangleTrackerTest, PresentClusteringOfComplete) {
  const Graph g = GenerateComplete(5);
  TriangleTracker tracker(g, {});
  EXPECT_DOUBLE_EQ(tracker.PresentClustering(4), 1.0);
}

TEST(TriangleTrackerTest, ObjectiveMatchesDefinition) {
  const Graph g = GenerateComplete(4);
  // Target: ĉ̄(3) = 0.5; present 1.0; mass = 0.5 -> D = |1-0.5|/0.5 = 1.
  TriangleTracker tracker(g, {0.0, 0.0, 0.0, 0.5});
  EXPECT_DOUBLE_EQ(tracker.Objective(), 1.0);
}

TEST(TriangleTrackerTest, ObjectiveZeroWhenTargetEmpty) {
  const Graph g = GenerateComplete(4);
  TriangleTracker tracker(g, {});
  EXPECT_DOUBLE_EQ(tracker.Objective(), 0.0);
}

TEST(TriangleTrackerTest, ObjectiveRespondsToRewires) {
  // Square with a diagonal: removing the diagonal lowers clustering.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(0, 2);
  std::vector<double> target = ExtractDegreeDependentClustering(g);
  TriangleTracker tracker(g, target);
  EXPECT_NEAR(tracker.Objective(), 0.0, 1e-12);
  tracker.RemoveEdge(0, 2);
  EXPECT_GT(tracker.Objective(), 0.0);
  tracker.AddEdge(0, 2);
  tracker.RecomputeObjective();
  EXPECT_NEAR(tracker.Objective(), 0.0, 1e-12);
}

TEST(TriangleTrackerTest, EvaluateSwapDeltaMatchesApplyAndMeasure) {
  // The const speculative score must agree with actually performing the
  // four operations and measuring the objective change — including swaps
  // whose endpoints coincide (j == a, i == b) and swaps that create
  // loops or parallel edges.
  Rng gen_rng(60);
  Graph g = GeneratePowerlawCluster(150, 3, 0.5, gen_rng);
  g.AddEdge(2, 3);
  g.AddEdge(2, 3);  // parallel bundle
  g.AddEdge(4, 4);  // loop
  std::vector<double> target(g.MaxDegree() + 1, 0.3);
  TriangleTracker tracker(g, target);

  Rng rng(61);
  std::size_t scored = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const EdgeId id1 = rng.NextIndex(g.NumEdges());
    const EdgeId id2 = rng.NextIndex(g.NumEdges());
    if (id1 == id2) continue;
    const Edge e1 = g.edge(id1);
    const Edge e2 = g.edge(id2);
    const NodeId i = e1.u, j = e1.v;
    const NodeId a = rng.NextBernoulli(0.5) ? e2.u : e2.v;
    const NodeId b = (a == e2.u) ? e2.v : e2.u;
    if (i == a || j == b) continue;  // no-op swap family

    tracker.RecomputeObjective();
    const double before = tracker.Objective();
    std::vector<std::uint32_t> touched;
    const double delta = tracker.EvaluateSwapDelta(i, j, a, b, &touched);

    // Ground truth: mutate, recompute from scratch, revert.
    tracker.RemoveEdge(i, j);
    tracker.RemoveEdge(a, b);
    tracker.AddEdge(i, b);
    tracker.AddEdge(a, j);
    tracker.RecomputeObjective();
    const double after = tracker.Objective();
    tracker.RemoveEdge(i, b);
    tracker.RemoveEdge(a, j);
    tracker.AddEdge(i, j);
    tracker.AddEdge(a, b);

    // Objective() normalizes by the target mass; the delta is on the
    // numerator.
    double mass = 0.0;
    for (double c : target) mass += c;
    ASSERT_NEAR(delta / mass, after - before, 1e-9)
        << "swap (" << i << "," << j << ")x(" << a << "," << b << ")";
    ++scored;
  }
  EXPECT_GT(scored, 100u);  // the trial filter must not eat the test
}

TEST(TriangleTrackerTest, ApplySwapMatchesManualOpsAndReportsClasses) {
  Rng gen_rng(62);
  Graph g = GeneratePowerlawCluster(100, 3, 0.5, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.2);
  TriangleTracker tracker(g, target);
  TriangleTracker manual(g, target);

  // A degree-matched swap drawn from the graph.
  const Edge e1 = g.edge(3);
  const Edge e2 = g.edge(40);
  const NodeId i = e1.u, j = e1.v, a = e2.u, b = e2.v;
  std::vector<std::uint32_t> touched;
  tracker.ApplySwap(i, j, a, b, &touched);
  manual.RemoveEdge(i, j);
  manual.RemoveEdge(a, b);
  manual.AddEdge(i, b);
  manual.AddEdge(a, j);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(tracker.triangles(v), manual.triangles(v)) << "node " << v;
  }
  // Every class whose T(k) changed must be reported (the commit-time
  // dirty set of the batched engine depends on it).
  const TriangleTracker fresh(g, target);
  for (std::uint32_t k = 0; k <= g.MaxDegree(); ++k) {
    if (tracker.ClassTriangles(k) == fresh.ClassTriangles(k)) continue;
    EXPECT_NE(std::find(touched.begin(), touched.end(), k), touched.end())
        << "class " << k << " changed but was not reported";
  }
}

TEST(TriangleTrackerTest, RandomChurnStaysConsistent) {
  Rng rng(52);
  Graph g = GeneratePowerlawCluster(120, 3, 0.5, rng);
  TriangleTracker tracker(g, {});
  // Random add/remove churn mirrored on the graph; counts must match a
  // fresh recount at the end.
  std::vector<std::pair<NodeId, NodeId>> added;
  for (int step = 0; step < 300; ++step) {
    if (!added.empty() && rng.NextBernoulli(0.4)) {
      const std::size_t idx = rng.NextIndex(added.size());
      const auto [u, v] = added[idx];
      tracker.RemoveEdge(u, v);
      // remove from g: find edge id
      for (EdgeId e = 0; e < g.NumEdges(); ++e) {
        const Edge& ed = g.edge(e);
        if ((ed.u == u && ed.v == v) || (ed.u == v && ed.v == u)) {
          g.ReplaceEdge(e, u, u);  // park as loop, then drop from tracker
          tracker.AddEdge(u, u);
          break;
        }
      }
      added[idx] = added.back();
      added.pop_back();
    } else {
      const NodeId u = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
      const NodeId v = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
      if (u == v) continue;
      g.AddEdge(u, v);
      tracker.AddEdge(u, v);
      added.push_back({u, v});
    }
  }
  const std::vector<std::int64_t> expected = CountTrianglesPerNode(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(tracker.triangles(v), expected[v]) << "node " << v;
  }
}

TEST(TriangleTrackerTest, ScoresDoNotDependOnEdgeOrder) {
  // One multigraph (loops, parallel bundles) built from its edge list in
  // two orders, with the second list's endpoints flipped: the trackers
  // must produce bit-identical scores and objectives along one swap
  // sequence.
  Rng gen_rng(63);
  Graph forward = GeneratePowerlawCluster(180, 3, 0.5, gen_rng);
  for (int copy = 0; copy < 3; ++copy) forward.AddEdge(5, 9);
  forward.AddEdge(11, 12);
  forward.AddEdge(11, 12);
  forward.AddEdge(5, 5);
  forward.AddEdge(30, 30);
  std::vector<Edge> edges(forward.edges().begin(), forward.edges().end());
  std::shuffle(edges.begin(), edges.end(), gen_rng.engine());
  Graph shuffled(forward.NumNodes());
  for (const Edge& e : edges) shuffled.AddEdge(e.v, e.u);

  std::vector<double> target(forward.MaxDegree() + 1, 0.25);
  TriangleTracker one(forward, target);
  TriangleTracker two(shuffled, target);
  ASSERT_EQ(Bits(one.Objective()), Bits(two.Objective()));

  Rng rng(64);
  std::size_t scored = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Swap s;
    if (!DrawSwap(forward, rng, s)) continue;
    const double d1 = one.EvaluateSwapDelta(s.i, s.j, s.a, s.b);
    const double d2 = two.EvaluateSwapDelta(s.i, s.j, s.a, s.b);
    ASSERT_EQ(Bits(d1), Bits(d2)) << "score " << d1 << " vs " << d2;
    ++scored;
    if (trial % 3 != 0) continue;  // commit every third scored swap
    CommitSwap(forward, one, s);
    two.ApplySwap(s.i, s.j, s.a, s.b);
    ASSERT_EQ(Bits(one.Objective()), Bits(two.Objective()))
        << "objective after trial " << trial;
  }
  EXPECT_GT(scored, 300u);
}

TEST(TriangleTrackerTest, HubRunsMatchApplyAndMeasure) {
  // A hub adjacent to most nodes, plus a parallel bundle and a loop on
  // it: the hub's run is far longer than any partner's, so every
  // hub-incident operation takes the short-run-into-long-run path.
  Rng gen_rng(65);
  Graph g = GeneratePowerlawCluster(240, 2, 0.4, gen_rng);
  const NodeId hub = 0;
  for (NodeId v = 1; v < g.NumNodes(); ++v) {
    if (v % 5 != 0) g.AddEdge(hub, v);
  }
  g.AddEdge(hub, 7);
  g.AddEdge(hub, 7);
  g.AddEdge(hub, hub);
  ASSERT_GT(g.Degree(hub), 8 * g.NumEdges() / g.NumNodes());
  std::vector<double> target(g.MaxDegree() + 1, 0.3);
  double mass = 0.0;
  for (double c : target) mass += c;
  TriangleTracker tracker(g, target);

  Rng rng(66);
  std::size_t hub_swaps = 0;
  for (int trial = 0; trial < 500; ++trial) {
    Swap s;
    if (!DrawSwap(g, rng, s)) continue;
    if (s.i == hub || s.j == hub || s.a == hub || s.b == hub) ++hub_swaps;

    tracker.RecomputeObjective();
    const double before = tracker.Objective();
    std::vector<std::int64_t> class_before(target.size());
    for (std::uint32_t k = 0; k < target.size(); ++k) {
      class_before[k] = tracker.ClassTriangles(k);
    }
    std::vector<std::uint32_t> touched;
    const double delta =
        tracker.EvaluateSwapDelta(s.i, s.j, s.a, s.b, &touched);

    CommitSwap(g, tracker, s);  // churn: every scored swap is kept
    tracker.RecomputeObjective();
    ASSERT_NEAR(delta / mass, tracker.Objective() - before, 1e-9)
        << "swap (" << s.i << "," << s.j << ")x(" << s.a << "," << s.b
        << ")";
    for (std::uint32_t k = 0; k < target.size(); ++k) {
      if (tracker.ClassTriangles(k) == class_before[k]) continue;
      ASSERT_NE(std::find(touched.begin(), touched.end(), k), touched.end())
          << "class " << k << " changed but the score did not touch it";
    }
  }
  EXPECT_GT(hub_swaps, 100u);
  const std::vector<std::int64_t> expected = CountTrianglesPerNode(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(tracker.triangles(v), expected[v]) << "node " << v;
  }
}

TEST(TriangleTrackerTest, ConcurrentScoresMatchSerial) {
  // EvaluateSwapDelta is const and data-race-free: threads scoring one
  // proposal list against a shared tracker reproduce the serial bits.
  Rng gen_rng(67);
  Graph g = GeneratePowerlawCluster(300, 3, 0.5, gen_rng);
  g.AddEdge(2, 3);
  g.AddEdge(2, 3);
  g.AddEdge(4, 4);
  const TriangleTracker tracker(
      g, std::vector<double>(g.MaxDegree() + 1, 0.2));

  Rng rng(68);
  std::vector<Swap> proposals;
  while (proposals.size() < 2000) {
    Swap s;
    if (DrawSwap(g, rng, s)) proposals.push_back(s);
  }
  std::vector<std::uint64_t> serial;
  for (const Swap& s : proposals) {
    serial.push_back(Bits(tracker.EvaluateSwapDelta(s.i, s.j, s.a, s.b)));
  }

  constexpr std::size_t kThreads = 4;
  std::array<std::vector<std::uint64_t>, kThreads> parallel;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread walks the list from a different offset so the
      // threads score different proposals at the same time.
      parallel[t].resize(proposals.size());
      for (std::size_t n = 0; n < proposals.size(); ++n) {
        const std::size_t idx = (n + t * proposals.size() / kThreads) %
                                proposals.size();
        const Swap& s = proposals[idx];
        std::vector<std::uint32_t> touched;
        parallel[t][idx] =
            Bits(tracker.EvaluateSwapDelta(s.i, s.j, s.a, s.b, &touched));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(parallel[t], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace sgr
