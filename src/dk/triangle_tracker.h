#ifndef SGR_DK_TRIANGLE_TRACKER_H_
#define SGR_DK_TRIANGLE_TRACKER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace sgr {

/// Incremental maintenance of per-node triangle counts, per-degree-class
/// clustering sums, and the rewiring objective of Algorithm 6.
///
/// The rewiring phase performs millions of trial edge swaps; recomputing the
/// degree-dependent clustering coefficient from scratch per attempt would be
/// O(m^{3/2}) each. This tracker maintains:
///   * t_v — triangles through node v (multiplicity-aware),
///   * T(k) = Σ_{deg v = k} t_v per degree class,
///   * the normalized L1 objective
///       D = Σ_k |c̄(k) − ĉ̄(k)| / Σ_k ĉ̄(k),   c̄(k) = 2 T(k) / (k(k−1) n(k)),
/// under edge insertions/removals. Each operation intersects the two
/// endpoints' sorted neighbor runs, walking the shorter one:
/// O(d_short · log d_long) per operation. The intersection visits common
/// neighbors in ascending id order, so every score and the objective's
/// floating-point bits depend only on the tracked multigraph, not on
/// the order its edges were inserted.
///
/// Degrees are frozen at construction: Algorithm 6 only performs
/// degree-preserving swaps, so degree classes never change and a 2-swap
/// returns every run to its old length (no reallocation while rewiring).
/// The tracker keeps its own copy of the adjacency; callers must mirror
/// every AddEdge/RemoveEdge on the actual Graph (or revert the tracker) to
/// stay in sync.
class TriangleTracker {
 public:
  /// Builds the tracker from `g` with rewiring target ĉ̄(k) =
  /// `target_clustering[k]` (shorter vectors are zero-padded).
  TriangleTracker(const Graph& g, std::vector<double> target_clustering);

  /// Notifies the tracker that edge (u, v) was removed. u == v (loop) only
  /// updates multiplicities (loops form no triangles).
  void RemoveEdge(NodeId u, NodeId v);

  /// Notifies the tracker that edge (u, v) was added.
  void AddEdge(NodeId u, NodeId v);

  /// Objective-numerator change of the 2-swap that removes (i, j) and
  /// (a, b) and adds (i, b) and (a, j), WITHOUT mutating the tracker.
  /// Negative means the swap strictly improves the objective. The four
  /// edge operations are scored in the same order ApplySwap performs
  /// them, so the value equals the objective change an actual
  /// apply-and-recompute would observe (up to summation order).
  ///
  /// `touched_classes`, when non-null, receives every degree class whose
  /// T(k) the swap would modify — exactly the classes this score reads
  /// from mutable state. Together with the four endpoint adjacencies
  /// (the only other mutable reads) that set defines the swap's conflict
  /// footprint: the value stays exact as long as no committed swap
  /// touches one of these nodes or classes.
  ///
  /// Const and data-race-free against concurrent EvaluateSwapDelta calls:
  /// the batched rewiring engine scores whole proposal batches in
  /// parallel against one frozen tracker state.
  double EvaluateSwapDelta(NodeId i, NodeId j, NodeId a, NodeId b,
                           std::vector<std::uint32_t>* touched_classes =
                               nullptr) const;

  /// Applies the 2-swap (remove (i, j), remove (a, b), add (i, b),
  /// add (a, j)) through the incremental update path — the cheap commit
  /// primitive of the batched rewiring engine. `touched_classes`, when
  /// non-null, receives every degree class whose T(k) actually changed
  /// (the dirty set later proposals in the same round are checked
  /// against).
  void ApplySwap(NodeId i, NodeId j, NodeId a, NodeId b,
                 std::vector<std::uint32_t>* touched_classes = nullptr);

  /// Triangles through `v`.
  std::int64_t triangles(NodeId v) const { return t_[v]; }

  /// t_v of every node, indexed by node id.
  const std::vector<std::int64_t>& triangle_counts() const { return t_; }

  /// T(k): summed triangles of degree class k (0 for out-of-range k).
  std::int64_t ClassTriangles(std::uint32_t k) const {
    return k < class_t_.size() ? class_t_[k] : 0;
  }

  /// Present degree-dependent clustering c̄(k) of the tracked graph.
  double PresentClustering(std::uint32_t k) const;

  /// Normalized L1 distance between present and target clustering
  /// (the objective D of Algorithm 6). Maintained incrementally; see
  /// RecomputeObjective for drift control. Returns 0 when the target has no
  /// mass (Σ ĉ̄ = 0: nothing to optimize).
  double Objective() const { return target_mass_ > 0.0 ? objective_num_ / target_mass_ : 0.0; }

  /// Recomputes the objective numerator from T(k) to cancel accumulated
  /// floating-point drift. Called periodically by the rewirer.
  void RecomputeObjective();

  /// Multiplicity A_uv currently tracked (A_vv = 2 × loops).
  std::int64_t Multiplicity(NodeId u, NodeId v) const;

 private:
  double ClassTerm(std::uint32_t k) const;
  /// |c̄(k) − ĉ̄(k)| as it would read with T(k) shifted by `dt`.
  double ClassTermWithDelta(std::uint32_t k, std::int64_t dt) const;
  void BumpClassTriangles(std::uint32_t k, std::int64_t delta);
  /// Applies the triangle delta of inserting (sign=+1) or deleting
  /// (sign=-1) one (u,v) edge, u != v.
  void ApplyTriangleDelta(NodeId u, NodeId v, std::int64_t sign);

  // Sorted neighbor runs: one entry per incident edge endpoint, a loop
  // stored twice (Graph::adjacency's convention), so A_uv is the length
  // of v's run of equal ids in adj_[u].
  std::vector<std::vector<NodeId>> adj_;
  std::vector<std::int64_t> t_;
  std::vector<std::uint32_t> degree_;   // frozen degree classes
  std::vector<std::int64_t> class_n_;   // n(k), frozen
  std::vector<std::int64_t> class_t_;   // T(k)
  std::vector<double> target_;          // ĉ̄(k), padded
  double target_mass_ = 0.0;            // Σ_k ĉ̄(k)
  double objective_num_ = 0.0;          // Σ_k |c̄(k) − ĉ̄(k)|
  // Sink for the classes BumpClassTriangles touches during ApplySwap
  // (null outside of an ApplySwap call).
  std::vector<std::uint32_t>* touched_sink_ = nullptr;
};

}  // namespace sgr

#endif  // SGR_DK_TRIANGLE_TRACKER_H_
