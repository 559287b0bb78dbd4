#include "analysis/properties.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <queue>
#include <thread>

#include "dk/dk_extract.h"
#include "graph/components.h"
#include "util/rng.h"

namespace sgr {

std::vector<double> DegreeDistribution(const Graph& g) {
  return DegreeDistribution(CsrGraph(g));
}

std::vector<double> DegreeDistribution(const CsrGraph& g) {
  const DegreeVector dv = ExtractDegreeVector(g);
  std::vector<double> p(dv.size(), 0.0);
  if (g.NumNodes() == 0) return p;
  for (std::size_t k = 0; k < dv.size(); ++k) {
    p[k] = static_cast<double>(dv[k]) / static_cast<double>(g.NumNodes());
  }
  return p;
}

std::vector<double> NeighborConnectivity(const Graph& g) {
  return NeighborConnectivity(CsrGraph(g));
}

std::vector<double> NeighborConnectivity(const CsrGraph& g) {
  const std::size_t k_max = g.MaxDegree();
  std::vector<double> sums(k_max + 1, 0.0);
  std::vector<std::size_t> counts(k_max + 1, 0);
  NeighborCursor cursor(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const std::size_t k = g.Degree(v);
    if (k == 0) continue;
    double neighbor_degree_sum = 0.0;
    for (NodeId w : cursor.Load(v)) {
      neighbor_degree_sum += static_cast<double>(g.Degree(w));
    }
    sums[k] += neighbor_degree_sum / static_cast<double>(k);
    ++counts[k];
  }
  std::vector<double> knn(k_max + 1, 0.0);
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (counts[k] > 0) knn[k] = sums[k] / static_cast<double>(counts[k]);
  }
  return knn;
}

double NetworkClusteringCoefficient(const Graph& g) {
  return NetworkClusteringCoefficient(CsrGraph(g));
}

double NetworkClusteringCoefficient(const CsrGraph& g) {
  GraphProperties p;
  ComputeTriangleProperties(g, p);
  return p.clustering_global;
}

std::vector<double> EdgewiseSharedPartners(const Graph& g) {
  return EdgewiseSharedPartners(CsrGraph(g));
}

std::vector<double> EdgewiseSharedPartners(const CsrGraph& g) {
  GraphProperties p;
  ComputeTriangleProperties(g, p);
  return p.esp_dist;
}

void ComputeTriangleProperties(const CsrGraph& g, GraphProperties& p) {
  const TriangleCensusResult census = TriangleCensus(g);
  p.clustering_global = ClusteringFromTriangles(g, census.triangles);
  p.clustering_by_degree =
      ExtractDegreeDependentClustering(g, census.triangles);
  const std::vector<std::int64_t>& histogram = census.shared_partners;
  p.esp_dist.assign(histogram.size(), 0.0);  // empty when m = 0
  for (std::size_t s = 0; s < histogram.size(); ++s) {
    p.esp_dist[s] = static_cast<double>(histogram[s]) /
                    static_cast<double>(g.NumEdges());
  }
}

double LargestEigenvalue(const Graph& g, std::size_t max_iterations,
                         double tolerance) {
  return LargestEigenvalue(CsrGraph(g), max_iterations, tolerance);
}

double LargestEigenvalue(const CsrGraph& g, std::size_t max_iterations,
                         double tolerance) {
  const std::size_t n = g.NumNodes();
  if (n == 0) return 0.0;
  // Start from the degree vector: close to the principal eigenvector in
  // heavy-tailed graphs, so convergence is fast.
  std::vector<double> x(n, 0.0);
  double norm = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    x[v] = static_cast<double>(g.Degree(v)) + 1.0;
    norm += x[v] * x[v];
  }
  norm = std::sqrt(norm);
  for (double& value : x) value /= norm;

  // Iterate on A + I: the shift makes the dominant eigenvalue strictly
  // larger in magnitude than every other one even on bipartite graphs
  // (where A itself has the pair ±λ1 and plain power iteration
  // oscillates). λ1(A) = λ1(A + I) - 1.
  std::vector<double> y(n, 0.0);
  double lambda_shifted = 0.0;
  NeighborCursor cursor(g);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    for (NodeId v = 0; v < n; ++v) {
      double acc = x[v];
      for (NodeId w : cursor.Load(v)) acc += x[w];
      y[v] = acc;
    }
    const double rayleigh =
        std::inner_product(x.begin(), x.end(), y.begin(), 0.0);
    double y_norm = std::sqrt(
        std::inner_product(y.begin(), y.end(), y.begin(), 0.0));
    if (y_norm == 0.0) return 0.0;
    for (NodeId v = 0; v < n; ++v) x[v] = y[v] / y_norm;
    if (std::abs(rayleigh - lambda_shifted) <= tolerance) {
      return rayleigh - 1.0;
    }
    lambda_shifted = rayleigh;
  }
  return lambda_shifted - 1.0;
}

namespace {

/// Simplified largest connected component of `g` as a CSR snapshot:
/// loops dropped, parallel edges collapsed, nodes renumbered densely in
/// ascending original-id order (the same numbering
/// LargestConnectedComponent(g.Simplified()) produces).
CsrGraph SimplifiedLccCsr(const CsrGraph& g) {
  const std::size_t n = g.NumNodes();
  if (n == 0) return CsrGraph();

  // Connected components by BFS over the snapshot.
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> component_of(n, kUnvisited);
  std::vector<std::size_t> sizes;
  std::vector<NodeId> queue;
  queue.reserve(n);
  NeighborCursor cursor(g);
  for (NodeId start = 0; start < n; ++start) {
    if (component_of[start] != kUnvisited) continue;
    const std::size_t comp = sizes.size();
    sizes.push_back(0);
    queue.clear();
    queue.push_back(start);
    component_of[start] = comp;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      ++sizes[comp];
      for (NodeId w : cursor.Load(v)) {
        if (component_of[w] == kUnvisited) {
          component_of[w] = comp;
          queue.push_back(w);
        }
      }
    }
  }
  const std::size_t largest = static_cast<std::size_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());

  // Dense renumbering in ascending old-id order keeps neighbor ranges
  // sorted after mapping.
  std::vector<NodeId> old_to_new(n, static_cast<NodeId>(-1));
  std::vector<NodeId> members;
  members.reserve(sizes[largest]);
  for (NodeId v = 0; v < n; ++v) {
    if (component_of[v] == largest) {
      old_to_new[v] = static_cast<NodeId>(members.size());
      members.push_back(v);
    }
  }

  // Build the simplified adjacency: run-length collapse of the sorted
  // ranges drops parallel edges; loops are skipped outright.
  std::vector<std::size_t> offsets(members.size() + 1, 0);
  std::vector<NodeId> neighbors;
  for (std::size_t idx = 0; idx < members.size(); ++idx) {
    const NodeId v = members[idx];
    const NeighborSpan nbrs = cursor.Load(v);
    std::size_t i = 0;
    while (i < nbrs.size()) {
      const NodeId w = nbrs[i];
      while (i < nbrs.size() && nbrs[i] == w) ++i;
      if (w == v) continue;
      neighbors.push_back(old_to_new[w]);
    }
    offsets[idx + 1] = neighbors.size();
  }
  CsrGraph lcc =
      CsrGraph::FromAdjacency(std::move(offsets), std::move(neighbors));
  // A compressed input signals a paper-scale run: keep the working copy
  // compressed too, so the shortest-path phase doesn't silently double
  // the resident neighbor storage.
  if (g.compressed()) lcc.Compress();
  return lcc;
}

/// One Brandes pass from `source` over a connected simple graph: fills
/// `distance` and accumulates dependencies into `betweenness`, and the
/// per-distance pair counts into `length_histogram`. `cursor` is the
/// caller's (per-worker) reader over `g`, so the pass works on compressed
/// snapshots too.
void BrandesPass(const CsrGraph& g, NeighborCursor& cursor, NodeId source,
                 std::vector<double>& betweenness,
                 std::vector<std::int64_t>& length_histogram,
                 double& distance_sum, std::size_t& eccentricity,
                 std::vector<int>& distance, std::vector<double>& sigma,
                 std::vector<double>& delta, std::vector<NodeId>& order) {
  const std::size_t n = g.NumNodes();
  std::fill(distance.begin(), distance.end(), -1);
  std::fill(sigma.begin(), sigma.end(), 0.0);
  std::fill(delta.begin(), delta.end(), 0.0);
  order.clear();

  distance[source] = 0;
  sigma[source] = 1.0;
  std::queue<NodeId> frontier;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    order.push_back(v);
    for (NodeId w : cursor.Load(v)) {
      if (distance[w] < 0) {
        distance[w] = distance[v] + 1;
        frontier.push(w);
      }
      if (distance[w] == distance[v] + 1) sigma[w] += sigma[v];
    }
  }
  eccentricity = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (v == source) continue;
    const auto d = static_cast<std::size_t>(distance[v]);
    eccentricity = std::max(eccentricity, d);
    distance_sum += static_cast<double>(d);
    if (d >= length_histogram.size()) length_histogram.resize(d + 1, 0);
    ++length_histogram[d];
  }
  // Dependency accumulation in reverse BFS order.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId w = *it;
    for (NodeId v : cursor.Load(w)) {
      if (distance[v] == distance[w] - 1) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
    }
    if (w != source) betweenness[w] += delta[w];
  }
}

}  // namespace

std::vector<double> BetweennessCentrality(const Graph& g) {
  const CsrGraph csr(g);
  const std::size_t n = csr.NumNodes();
  std::vector<double> betweenness(n, 0.0);
  std::vector<std::int64_t> hist;
  std::vector<int> distance(n);
  std::vector<double> sigma(n), delta(n);
  std::vector<NodeId> order;
  order.reserve(n);
  NeighborCursor cursor(csr);
  double distance_sum = 0.0;
  std::size_t ecc = 0;
  for (NodeId s = 0; s < n; ++s) {
    BrandesPass(csr, cursor, s, betweenness, hist, distance_sum, ecc,
                distance, sigma, delta, order);
  }
  return betweenness;
}

ShortestPathProperties ComputeShortestPathProperties(
    const Graph& g, const PropertyOptions& options) {
  return ComputeShortestPathProperties(CsrGraph(g), options);
}

ShortestPathProperties ComputeShortestPathProperties(
    const CsrGraph& g, const PropertyOptions& options) {
  ShortestPathProperties result;
  const CsrGraph lcc = SimplifiedLccCsr(g);
  const std::size_t n = lcc.NumNodes();
  if (n < 2) return result;

  // Choose sources: all nodes (exact) or a uniform sample without
  // replacement.
  std::vector<NodeId> sources;
  if (options.max_path_sources == 0 || options.max_path_sources >= n) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), NodeId{0});
  } else {
    Rng rng(options.seed);
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), NodeId{0});
    std::shuffle(all.begin(), all.end(), rng.engine());
    sources.assign(all.begin(),
                   all.begin() + static_cast<std::ptrdiff_t>(
                                     options.max_path_sources));
  }

  // Parallel Bader-Madduri-style evaluation: sources are partitioned over
  // worker threads, each with private accumulators that are merged
  // afterwards, so the result is independent of the thread count.
  std::size_t num_threads = options.threads != 0
                                ? options.threads
                                : std::thread::hardware_concurrency();
  num_threads = std::max<std::size_t>(1, std::min(num_threads,
                                                  sources.size()));
  struct WorkerState {
    std::vector<double> betweenness;
    std::vector<std::int64_t> hist;
    double distance_sum = 0.0;
    std::size_t diameter = 0;
  };
  std::vector<WorkerState> workers(num_threads);
  {
    std::vector<std::thread> pool;
    pool.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      pool.emplace_back([&, t] {
        WorkerState& w = workers[t];
        w.betweenness.assign(n, 0.0);
        std::vector<int> distance(n);
        std::vector<double> sigma(n), delta(n);
        std::vector<NodeId> order;
        order.reserve(n);
        NeighborCursor cursor(lcc);  // per-worker: cursors are not shared
        for (std::size_t i = t; i < sources.size(); i += num_threads) {
          std::size_t ecc = 0;
          BrandesPass(lcc, cursor, sources[i], w.betweenness, w.hist,
                      w.distance_sum, ecc, distance, sigma, delta, order);
          w.diameter = std::max(w.diameter, ecc);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }
  std::vector<double> betweenness(n, 0.0);
  std::vector<std::int64_t> hist;
  double distance_sum = 0.0;
  std::size_t diameter = 0;
  for (const WorkerState& w : workers) {
    for (NodeId v = 0; v < n; ++v) betweenness[v] += w.betweenness[v];
    if (w.hist.size() > hist.size()) hist.resize(w.hist.size(), 0);
    for (std::size_t l = 0; l < w.hist.size(); ++l) hist[l] += w.hist[l];
    distance_sum += w.distance_sum;
    diameter = std::max(diameter, w.diameter);
  }

  // Source-pair counts: each BFS contributes (n-1) ordered pairs.
  const double ordered_pairs =
      static_cast<double>(sources.size()) * static_cast<double>(n - 1);
  result.average_length = distance_sum / ordered_pairs;
  result.length_dist.assign(hist.size(), 0.0);
  for (std::size_t l = 0; l < hist.size(); ++l) {
    result.length_dist[l] = static_cast<double>(hist[l]) / ordered_pairs;
  }
  result.diameter = diameter;

  // b̄(k): average betweenness of degree-k nodes (LCC degrees). When
  // sampling sources, scale dependencies to the full ordered-pair count.
  const double scale = static_cast<double>(n) /
                       static_cast<double>(sources.size());
  const std::size_t k_max = lcc.MaxDegree();
  std::vector<double> sums(k_max + 1, 0.0);
  std::vector<std::size_t> counts(k_max + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    sums[lcc.Degree(v)] += betweenness[v] * scale;
    ++counts[lcc.Degree(v)];
  }
  result.betweenness_by_degree.assign(k_max + 1, 0.0);
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (counts[k] > 0) {
      result.betweenness_by_degree[k] =
          sums[k] / static_cast<double>(counts[k]);
    }
  }
  return result;
}

GraphProperties ComputeProperties(const Graph& g,
                                  const PropertyOptions& options) {
  return ComputeProperties(CsrGraph(g), options);
}

GraphProperties ComputeProperties(const CsrGraph& g,
                                  const PropertyOptions& options) {
  GraphProperties p;
  p.num_nodes = g.NumNodes();
  p.average_degree = g.AverageDegree();
  p.degree_dist = DegreeDistribution(g);
  p.neighbor_connectivity = NeighborConnectivity(g);

  ComputeTriangleProperties(g, p);
  const ShortestPathProperties sp =
      ComputeShortestPathProperties(g, options);
  p.average_path_length = sp.average_length;
  p.path_length_dist = sp.length_dist;
  p.diameter = sp.diameter;
  p.betweenness_by_degree = sp.betweenness_by_degree;
  p.largest_eigenvalue = LargestEigenvalue(g, options.power_iterations,
                                           options.power_tolerance);
  return p;
}

}  // namespace sgr
