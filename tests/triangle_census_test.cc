// Differential test of TriangleCensus against the two kernels it replaced:
// the merge-based per-node triangle counter and the probe-based edgewise
// shared-partner analyzer, kept here verbatim as oracles. Triangle counts
// must match exactly, and every derived double (P(s), c̄, c̄(k)) bit for
// bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/properties.h"
#include "dk/dk_extract.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// The merge-based triangle counter: forward lists intersected by linear
/// merges.
std::vector<std::int64_t> OracleTriangles(const CsrGraph& g) {
  const std::size_t n = g.NumNodes();
  std::vector<std::int64_t> t(n, 0);
  auto rank_less = [&g](NodeId a, NodeId b) {
    return g.Degree(a) != g.Degree(b) ? g.Degree(a) < g.Degree(b) : a < b;
  };

  // Forward lists: for each node, its distinct higher-ranked neighbors with
  // edge multiplicities, in ascending id order. The sorted CSR ranges make
  // distinct-neighbor extraction a run-length scan, and id order is
  // preserved, so intersections below are linear merges.
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<NodeId> fwd_nbr;
  std::vector<std::int64_t> fwd_mult;
  fwd_nbr.reserve(g.NumEdges());
  fwd_mult.reserve(g.NumEdges());
  NeighborCursor cursor(g);
  for (NodeId v = 0; v < n; ++v) {
    const NeighborSpan nbrs = cursor.Load(v);
    std::size_t i = 0;
    while (i < nbrs.size()) {
      const NodeId w = nbrs[i];
      std::size_t run = 1;
      while (i + run < nbrs.size() && nbrs[i + run] == w) ++run;
      i += run;
      if (w == v) continue;  // loops form no triangles
      if (rank_less(v, w)) {
        fwd_nbr.push_back(w);
        fwd_mult.push_back(static_cast<std::int64_t>(run));
      }
    }
    offsets[v + 1] = fwd_nbr.size();
  }

  // Every triangle {a, b, c} with rank a < b < c is oriented a->b, a->c,
  // b->c and found exactly once: at the directed edge (a, b), as the
  // intersection of the forward lists of a and b. The multiplicity product
  // A_ab A_ac A_bc is what t_i = Σ_{j<l} A_ij A_il A_jl accumulates at
  // each corner, so the same pass is exact for multigraphs.
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const NodeId v = fwd_nbr[e];
      const std::int64_t m_uv = fwd_mult[e];
      std::size_t a = offsets[u];
      std::size_t b = offsets[v];
      while (a < offsets[u + 1] && b < offsets[v + 1]) {
        if (fwd_nbr[a] < fwd_nbr[b]) {
          ++a;
        } else if (fwd_nbr[a] > fwd_nbr[b]) {
          ++b;
        } else {
          const NodeId w = fwd_nbr[a];
          const std::int64_t weight = m_uv * fwd_mult[a] * fwd_mult[b];
          t[u] += weight;
          t[v] += weight;
          t[w] += weight;
          ++a;
          ++b;
        }
      }
    }
  }
  return t;
}

/// The probe-based P(s) analyzer: per distinct pair, binary-search each
/// neighbor of the smaller endpoint in the larger one's sorted range.
std::vector<double> OracleEsp(const CsrGraph& g) {
  // The shared-partner count of an edge (u, v) is Σ_{w != u,v} A_uw A_vw,
  // identical for all parallel copies of the edge: compute it once per
  // distinct connected pair by probing the smaller distinct-neighbor list
  // against the larger sorted range, then weight the histogram entry by
  // the pair's multiplicity.
  std::vector<std::int64_t> histogram;
  // Three spans are live at once (u's list plus the probe pair), so each
  // gets its own cursor — a cursor's span dies on its next Load.
  NeighborCursor cursor_u(g);
  NeighborCursor cursor_small(g);
  NeighborCursor cursor_large(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const NeighborSpan nbrs = cursor_u.Load(u);
    std::size_t i = 0;
    while (i < nbrs.size()) {
      const NodeId v = nbrs[i];
      std::size_t run = 1;
      while (i + run < nbrs.size() && nbrs[i + run] == v) ++run;
      i += run;
      if (v <= u) continue;  // handle each pair once; loops never count
      const NodeId small = g.Degree(u) <= g.Degree(v) ? u : v;
      const NodeId large = (small == u) ? v : u;
      const NeighborSpan sn = cursor_small.Load(small);
      const NeighborSpan ln = cursor_large.Load(large);
      std::int64_t shared = 0;
      std::size_t a = 0;
      while (a < sn.size()) {
        const NodeId w = sn[a];
        std::size_t mult = 1;
        while (a + mult < sn.size() && sn[a + mult] == w) ++mult;
        a += mult;
        if (w == u || w == v) continue;
        const auto range = std::equal_range(ln.begin(), ln.end(), w);
        shared += static_cast<std::int64_t>(mult) *
                  static_cast<std::int64_t>(range.second - range.first);
      }
      if (static_cast<std::size_t>(shared) >= histogram.size()) {
        histogram.resize(shared + 1, 0);
      }
      histogram[shared] += static_cast<std::int64_t>(run);
    }
  }
  std::vector<double> p(histogram.size(), 0.0);
  if (g.NumEdges() > 0) {
    for (std::size_t s = 0; s < histogram.size(); ++s) {
      p[s] = static_cast<double>(histogram[s]) /
             static_cast<double>(g.NumEdges());
    }
  }
  return p;
}

/// c̄ from triangle counts, in the analyzer's summation order.
double OracleClustering(const CsrGraph& g,
                        const std::vector<std::int64_t>& t) {
  if (g.NumNodes() == 0) return 0.0;
  double total = 0.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const std::size_t d = g.Degree(v);
    if (d >= 2) {
      total += 2.0 * static_cast<double>(t[v]) /
               (static_cast<double>(d) * static_cast<double>(d - 1));
    }
  }
  return total / static_cast<double>(g.NumNodes());
}

void ExpectBitIdentical(const std::vector<double>& expected,
                        const std::vector<double>& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what << " size";
  if (expected.empty()) return;  // memcmp must not see a null pointer
  EXPECT_EQ(0, std::memcmp(expected.data(), actual.data(),
                           expected.size() * sizeof(double)))
      << what << " differs in its bits";
}

void ExpectBitIdentical(double expected, double actual,
                        const std::string& what) {
  EXPECT_EQ(0, std::memcmp(&expected, &actual, sizeof(double)))
      << what << ": " << expected << " vs " << actual;
}

/// Every census-backed entry point against the oracles on one snapshot.
void ExpectCensusMatchesOracles(const CsrGraph& g, const std::string& where) {
  SCOPED_TRACE(where);
  const std::vector<std::int64_t> t = OracleTriangles(g);
  const std::vector<double> esp = OracleEsp(g);
  const double clustering = OracleClustering(g, t);
  const std::vector<double> by_degree =
      ExtractDegreeDependentClustering(g, t);

  const TriangleCensusResult census = TriangleCensus(g);
  EXPECT_EQ(t, census.triangles);
  EXPECT_EQ(t, CountTrianglesPerNode(g));
  if (!census.shared_partners.empty()) {
    EXPECT_NE(0, census.shared_partners.back()) << "trailing empty bin";
  }
  ExpectBitIdentical(esp, EdgewiseSharedPartners(g), "P(s)");
  ExpectBitIdentical(clustering, NetworkClusteringCoefficient(g), "c");
  ExpectBitIdentical(by_degree, ExtractDegreeDependentClustering(g),
                     "c(k)");

  GraphProperties p;
  ComputeTriangleProperties(g, p);
  ExpectBitIdentical(esp, p.esp_dist, "shared P(s)");
  ExpectBitIdentical(clustering, p.clustering_global, "shared c");
  ExpectBitIdentical(by_degree, p.clustering_by_degree, "shared c(k)");
}

/// Checks `g` as a plain and as a Compress()ed snapshot.
void ExpectCensusMatchesOracles(const Graph& g, const std::string& where) {
  const CsrGraph plain(g);
  ExpectCensusMatchesOracles(plain, where + " (plain)");
  CsrGraph packed(g);
  packed.Compress();
  ASSERT_TRUE(packed.compressed());
  ExpectCensusMatchesOracles(packed, where + " (compressed)");
}

/// A random multigraph on few nodes, so triangles, parallel edges and
/// loops all occur often: about a tenth of the edges are loops and a fifth
/// repeat an earlier edge.
Graph RandomMultigraph(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 1 + rng.NextIndex(30);
  const std::size_t m = rng.NextIndex(4 * n + 1);
  Graph g(n);
  for (std::size_t e = 0; e < m; ++e) {
    const double kind = rng.NextReal();
    if (kind < 0.1) {
      const auto v = static_cast<NodeId>(rng.NextIndex(n));
      g.AddEdge(v, v);
    } else if (kind < 0.3 && g.NumEdges() > 0) {
      const Edge copy = g.edge(rng.NextIndex(g.NumEdges()));
      g.AddEdge(copy.u, copy.v);
    } else {
      g.AddEdge(static_cast<NodeId>(rng.NextIndex(n)),
                static_cast<NodeId>(rng.NextIndex(n)));
    }
  }
  return g;
}

TEST(TriangleCensusTest, MatchesOraclesOnRandomMultigraphs) {
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    ExpectCensusMatchesOracles(RandomMultigraph(seed),
                               "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(TriangleCensusTest, MatchesOraclesOnEmptyAndSingleNode) {
  ExpectCensusMatchesOracles(Graph(), "empty graph");
  ExpectCensusMatchesOracles(Graph(1), "single node");
  Graph loop(1);
  loop.AddEdge(0, 0);
  loop.AddEdge(0, 0);
  ExpectCensusMatchesOracles(loop, "single node with two loops");
  const TriangleCensusResult census = TriangleCensus(CsrGraph(loop));
  EXPECT_EQ(std::vector<std::int64_t>{0}, census.triangles);
  EXPECT_TRUE(census.shared_partners.empty());
}

TEST(TriangleCensusTest, MatchesOraclesOnStar) {
  Graph star(9);
  for (NodeId leaf = 1; leaf < 9; ++leaf) star.AddEdge(0, leaf);
  ExpectCensusMatchesOracles(star, "star");
  const TriangleCensusResult census = TriangleCensus(CsrGraph(star));
  EXPECT_EQ(std::vector<std::int64_t>(9, 0), census.triangles);
  EXPECT_EQ(std::vector<std::int64_t>{8}, census.shared_partners);
}

TEST(TriangleCensusTest, MatchesOraclesOnDoubledK5) {
  // Every edge of K5 twice: each pair has multiplicity 2 and shares three
  // partners, each through 2·2 = 4 paths, so s = 12 for all 20 edges; and
  // each node sits in C(4,2) = 6 triangles of weight 2³ = 8.
  Graph k5(5);
  for (int copy = 0; copy < 2; ++copy) {
    for (NodeId u = 0; u < 5; ++u) {
      for (NodeId v = u + 1; v < 5; ++v) k5.AddEdge(u, v);
    }
  }
  ExpectCensusMatchesOracles(k5, "doubled K5");
  const TriangleCensusResult census = TriangleCensus(CsrGraph(k5));
  EXPECT_EQ(std::vector<std::int64_t>(5, 48), census.triangles);
  std::vector<std::int64_t> histogram(13, 0);
  histogram[12] = 20;
  EXPECT_EQ(histogram, census.shared_partners);
}

TEST(TriangleCensusTest, MatchesOraclesOnHeavyMultigraph) {
  // Max degree times max multiplicity (70001 · 70000) exceeds 32 bits, so
  // the census holds supports in 64 bits here.
  Graph heavy(3);
  for (int copy = 0; copy < 70000; ++copy) heavy.AddEdge(0, 1);
  heavy.AddEdge(0, 2);
  heavy.AddEdge(1, 2);
  ExpectCensusMatchesOracles(heavy, "heavy multigraph");
  const TriangleCensusResult census = TriangleCensus(CsrGraph(heavy));
  EXPECT_EQ(std::vector<std::int64_t>(3, 70000), census.triangles);
  std::vector<std::int64_t> histogram(70001, 0);
  histogram[1] = 70000;  // the 70000 copies of {0, 1} share node 2 once
  histogram[70000] = 2;  // {0, 2} and {1, 2} share node 1 or 0 70000-fold
  EXPECT_EQ(histogram, census.shared_partners);
}

}  // namespace
}  // namespace sgr
