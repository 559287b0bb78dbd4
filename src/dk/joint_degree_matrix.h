#ifndef SGR_DK_JOINT_DEGREE_MATRIX_H_
#define SGR_DK_JOINT_DEGREE_MATRIX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dk/degree_vector.h"
#include "estimation/estimates.h"  // DegreePairKey

namespace sgr {

/// Joint degree matrix {m(k,k')}: entry (k,k') holds the number of edges
/// between nodes of degree k and nodes of degree k'. This is the 2K
/// statistic of the dK-series; the matrix is symmetric, and the row sum
/// s(k) = Σ_k' µ(k,k') m(k,k') equals k·n(k) for a realizable pair
/// (degree vector, matrix), where µ(k,k) = 2 and µ = 1 otherwise.
///
/// Storage is sparse and symmetric: both (k,k') and (k',k) orderings map to
/// the same logical entry (a single physical entry on the diagonal).
class JointDegreeMatrix {
 public:
  /// m(k, k'); 0 when absent.
  std::int64_t At(std::uint32_t k, std::uint32_t k_prime) const {
    auto it = counts_.find(DegreePairKey(k, k_prime));
    return it == counts_.end() ? 0 : it->second;
  }

  /// Adds `delta` to m(k,k') and m(k',k) (one entry when k == k').
  /// Entries dropping to zero are erased so iteration stays sparse.
  void AddSymmetric(std::uint32_t k, std::uint32_t k_prime,
                    std::int64_t delta);

  /// Sets m(k,k') = m(k',k) = value.
  void SetSymmetric(std::uint32_t k, std::uint32_t k_prime,
                    std::int64_t value);

  /// Row sums s(k) = Σ_k' µ(k,k') m(k,k') for k = 0..k_max, in one pass
  /// over the entries; no entry may name a degree above k_max.
  std::vector<std::int64_t> RowSums(std::uint32_t k_max) const;

  /// Σ_{k<=k'} m(k,k'): total number of edges described.
  std::int64_t TotalEdges() const;

  /// Raw storage: key -> count; both orderings present for k != k'.
  const std::unordered_map<std::uint64_t, std::int64_t>& counts() const {
    return counts_;
  }

  /// Largest degree appearing with a positive count.
  std::uint32_t MaxDegree() const;

  /// JDM-1: all entries non-negative.
  bool SatisfiesJdm1() const;

  /// JDM-2: symmetry (holds by construction; verified for tests).
  bool SatisfiesJdm2() const;

  /// JDM-3: s(k) == k * n(k) for every degree k <= k_max.
  bool SatisfiesJdm3(const DegreeVector& dv) const;

  /// JDM-4 relative to a lower-limit matrix: m(k,k') >= other(k,k').
  bool Dominates(const JointDegreeMatrix& lower) const;

 private:
  std::unordered_map<std::uint64_t, std::int64_t> counts_;
};

}  // namespace sgr

#endif  // SGR_DK_JOINT_DEGREE_MATRIX_H_
