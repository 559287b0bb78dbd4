#ifndef SGR_DK_DK_EXTRACT_H_
#define SGR_DK_DK_EXTRACT_H_

#include <vector>

#include "dk/degree_vector.h"
#include "dk/joint_degree_matrix.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace sgr {

/// Extraction of dK-series statistics from a complete graph (Section III-C).
/// These are ground-truth counterparts of the re-weighted estimates, used by
/// the analysis module, the test suite, and the dK generation toolkit.
/// The CsrGraph overloads are the hot paths; the Graph overloads snapshot
/// and delegate, so both stay exactly equivalent.

/// Degree vector {n(k)}: ExtractDegreeVector(g)[k] counts nodes of degree k.
DegreeVector ExtractDegreeVector(const Graph& g);
DegreeVector ExtractDegreeVector(const CsrGraph& g);

/// Joint degree matrix {m(k,k')}: number of edges between degree classes.
/// A self-loop at a degree-k node contributes 1 to m(k,k) (it is one edge
/// whose both endpoints have degree k).
JointDegreeMatrix ExtractJointDegreeMatrix(const Graph& g);

/// Per-node triangles t_i = Σ_{j<l} A_ij A_il A_jl, and the edgewise
/// shared-partner histogram: [s] counts the non-loop edges (parallel copies
/// apart) whose endpoints share s = Σ_{w ∉ {i,j}} A_iw A_jw partners.
struct TriangleCensusResult {
  std::vector<std::int64_t> triangles;
  std::vector<std::int64_t> shared_partners;
};

/// One mark-based forward pass (Schank & Wagner, WEA 2005; Latapy, TCS
/// 2008). Each distinct non-loop pair is a slot, with its multiplicity, in
/// the forward list of its lower-(degree, id)-ranked endpoint. Marking u's
/// slots and walking each forward neighbor v's list finds every triangle
/// u→v→w once: it adds A_uw·A_vw, A_uv·A_vw and A_uv·A_uw to the supports
/// of slots uv, uw and vw, and A_uv·A_uw·A_vw to t_u, t_v and t_w. Supports
/// enter the histogram weighted by multiplicity. Cost: Σ_{u→v} |fwd(v)|
/// steps over O(√m)-long forward lists; scratch 8 bytes per edge for the
/// slots, 4 per slot for supports (8 for very heavy multigraphs) and 8 per
/// node. Throws std::length_error when the edge count, which bounds the
/// slot count, overflows 32 bits.
TriangleCensusResult TriangleCensus(const CsrGraph& g);

/// Per-node triangle counts t_i: the census's `triangles`.
std::vector<std::int64_t> CountTrianglesPerNode(const Graph& g);
std::vector<std::int64_t> CountTrianglesPerNode(const CsrGraph& g);

/// Degree-dependent clustering coefficient {c̄(k)}: c̄(k) is the mean of
/// 2 t_i / (k (k-1)) over nodes of degree k; c̄(0) = c̄(1) = 0. The result
/// has size MaxDegree()+1. The `triangles` overload reuses the t_i of a
/// census the caller already has.
std::vector<double> ExtractDegreeDependentClustering(const Graph& g);
std::vector<double> ExtractDegreeDependentClustering(const CsrGraph& g);
std::vector<double> ExtractDegreeDependentClustering(
    const CsrGraph& g, const std::vector<std::int64_t>& triangles);

}  // namespace sgr

#endif  // SGR_DK_DK_EXTRACT_H_
