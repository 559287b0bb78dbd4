#include "dk/dk_extract.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace sgr {

DegreeVector ExtractDegreeVector(const Graph& g) {
  DegreeVector dv(g.MaxDegree() + 1, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) ++dv[g.Degree(v)];
  return dv;
}

DegreeVector ExtractDegreeVector(const CsrGraph& g) {
  DegreeVector dv(g.MaxDegree() + 1, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) ++dv[g.Degree(v)];
  return dv;
}

JointDegreeMatrix ExtractJointDegreeMatrix(const Graph& g) {
  JointDegreeMatrix jdm;
  for (const Edge& e : g.edges()) {
    jdm.AddSymmetric(static_cast<std::uint32_t>(g.Degree(e.u)),
                     static_cast<std::uint32_t>(g.Degree(e.v)), 1);
  }
  return jdm;
}

TriangleCensusResult TriangleCensus(const CsrGraph& g) {
  const std::size_t n = g.NumNodes();
  auto rank_less = [&g](NodeId a, NodeId b) {
    return g.Degree(a) != g.Degree(b) ? g.Degree(a) < g.Degree(b) : a < b;
  };
  // Forward lists in one flat slot array: v's distinct higher-ranked
  // neighbors (no loops) with their multiplicities, one slot per pair. So
  // g.NumEdges() bounds the slot count and every multiplicity, and a graph
  // past 32 bits is refused before anything is allocated.
  if (g.NumEdges() > UINT32_MAX) {
    throw std::length_error("TriangleCensus: " +
                            std::to_string(g.NumEdges()) +
                            " edges overflow 32-bit slots");
  }
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<NodeId> fwd;
  std::vector<std::uint32_t> mult;
  fwd.reserve(g.NumEdges());
  mult.reserve(g.NumEdges());
  std::size_t max_mult = 0;
  NeighborCursor cursor(g);
  for (NodeId v = 0; v < n; ++v) {
    const NeighborSpan nbrs = cursor.Load(v);
    std::size_t i = 0;
    while (i < nbrs.size()) {
      const NodeId w = nbrs[i];
      std::size_t run = 1;
      while (i + run < nbrs.size() && nbrs[i + run] == w) ++run;
      i += run;
      if (w == v || !rank_less(v, w)) continue;
      fwd.push_back(w);
      mult.push_back(static_cast<std::uint32_t>(run));
      max_mult = std::max(max_mult, run);
    }
    offsets[v + 1] = static_cast<std::uint32_t>(fwd.size());
  }
  const std::size_t slots = fwd.size();

  // The census, with supports of zero's type. mark[w] is w's slot in the
  // list being walked; a mark outside u's range is stale (or unset), so
  // one unsigned range test replaces clearing the marks after each u.
  auto count = [&](auto zero) {
    using Support = decltype(zero);
    TriangleCensusResult census{std::vector<std::int64_t>(n, 0), {}};
    std::vector<std::int64_t>& t = census.triangles;
    std::vector<Support> support(slots, zero);
    std::vector<std::uint32_t> mark(n, UINT32_MAX);
    for (NodeId u = 0; u < n; ++u) {
      const std::uint32_t begin = offsets[u];
      const std::uint32_t end = offsets[u + 1];
      for (std::uint32_t s = begin; s < end; ++s) mark[fwd[s]] = s;
      for (std::uint32_t uv = begin; uv < end; ++uv) {
        const NodeId v = fwd[uv];
        const std::int64_t a_uv = mult[uv];
        std::int64_t support_uv = 0;
        for (std::uint32_t vw = offsets[v]; vw < offsets[v + 1]; ++vw) {
          const NodeId w = fwd[vw];
          const std::uint32_t uw = mark[w];
          if (uw - begin >= end - begin) continue;  // w not in fwd(u)
          const std::int64_t a_uw = mult[uw];
          const std::int64_t a_vw = mult[vw];
          support_uv += a_uw * a_vw;
          support[uw] += static_cast<Support>(a_uv * a_vw);
          support[vw] += static_cast<Support>(a_uv * a_uw);
          const std::int64_t weight = a_uv * a_uw * a_vw;
          t[u] += weight;
          t[v] += weight;
          t[w] += weight;
        }
        support[uv] += static_cast<Support>(support_uv);
      }
    }
    // Every parallel copy of a pair has the pair's shared partners.
    std::vector<std::int64_t>& histogram = census.shared_partners;
    for (std::size_t s = 0; s < slots; ++s) {
      const auto shared = static_cast<std::size_t>(support[s]);
      if (shared >= histogram.size()) histogram.resize(shared + 1, 0);
      histogram[shared] += mult[s];
    }
    return census;
  };
  // A support Σ_w A_uw·A_vw is at most deg(u) times the largest
  // multiplicity: 32 bits hold it unless a multigraph is very heavy.
  if (g.MaxDegree() * max_mult <= UINT32_MAX) return count(std::uint32_t{0});
  return count(std::int64_t{0});
}

std::vector<std::int64_t> CountTrianglesPerNode(const Graph& g) {
  return CountTrianglesPerNode(CsrGraph(g));
}

std::vector<std::int64_t> CountTrianglesPerNode(const CsrGraph& g) {
  return TriangleCensus(g).triangles;
}

std::vector<double> ExtractDegreeDependentClustering(const Graph& g) {
  return ExtractDegreeDependentClustering(CsrGraph(g));
}

std::vector<double> ExtractDegreeDependentClustering(const CsrGraph& g) {
  return ExtractDegreeDependentClustering(g, CountTrianglesPerNode(g));
}

std::vector<double> ExtractDegreeDependentClustering(
    const CsrGraph& g, const std::vector<std::int64_t>& triangles) {
  const DegreeVector dv = ExtractDegreeVector(g);
  std::vector<double> c(dv.size(), 0.0);
  std::vector<double> sums(dv.size(), 0.0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const std::size_t k = g.Degree(v);
    if (k >= 2) {
      sums[k] += 2.0 * static_cast<double>(triangles[v]) /
                 (static_cast<double>(k) * static_cast<double>(k - 1));
    }
  }
  for (std::size_t k = 2; k < dv.size(); ++k) {
    if (dv[k] > 0) c[k] = sums[k] / static_cast<double>(dv[k]);
  }
  return c;
}

}  // namespace sgr
