#include "dk/dk_series.h"

#include "dk/dk_construct.h"
#include "dk/dk_extract.h"
#include "restore/rewirer.h"

namespace sgr {

Graph GenerateDkGraph(const Graph& original, DkOrder order, Rng& rng,
                      double rewiring_coefficient) {
  switch (order) {
    case DkOrder::k0:
      return Construct0kGraph(original.NumNodes(), original.NumEdges(),
                              rng);
    case DkOrder::k1:
      return Construct1kGraph(ExtractDegreeVector(original), rng);
    case DkOrder::k2:
      return Construct2kGraph(ExtractDegreeVector(original),
                              ExtractJointDegreeMatrix(original), rng);
    case DkOrder::k2_5: {
      Graph g = Construct2kGraph(ExtractDegreeVector(original),
                                 ExtractJointDegreeMatrix(original), rng);
      RewireOptions options;
      options.rewiring_coefficient = rewiring_coefficient;
      RewireToClusteringParallel(
          g, /*num_protected_edges=*/0,
          ExtractDegreeDependentClustering(original), options,
          ParallelRewireOptions{}, rng.engine()());
      return g;
    }
  }
  return Graph();
}

}  // namespace sgr
