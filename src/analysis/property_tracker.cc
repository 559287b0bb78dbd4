#include "analysis/property_tracker.h"

#include <algorithm>
#include <cassert>

#include "dk/dk_extract.h"
#include "graph/components.h"
#include "graph/csr_graph.h"

namespace sgr {

PropertyTracker::PropertyTracker(const Graph& g, PropertyAnalysisMode mode)
    : mode_(mode) {
  num_nodes_ = g.NumNodes();
  num_edges_ = g.NumEdges();
  adj_.resize(num_nodes_);
  for (const Edge& e : g.edges()) BumpAdjacency(e.u, e.v, +1);
  if (mode_ == PropertyAnalysisMode::kFromScratch) return;

  const CsrGraph csr(g);
  average_degree_ = csr.AverageDegree();
  degree_.resize(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    degree_[v] = static_cast<std::uint32_t>(g.Degree(v));
  }
  class_n_ = ExtractDegreeVector(csr);
  degree_dist_ = DegreeDistribution(csr);
  triangles_.emplace(g, std::vector<double>{});

  neighbor_degree_sum_.assign(num_nodes_, 0);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    std::int64_t sum = 0;
    for (NodeId w : g.adjacency(v)) sum += degree_[w];
    neighbor_degree_sum_[v] = sum;
  }

  // Shared-partner counts of every adjacent distinct pair, weighted into
  // the histogram by the pair's multiplicity — the same initial state
  // EdgewiseSharedPartners derives, in counter form.
  for (NodeId u = 0; u < num_nodes_; ++u) {
    // sgr-check: allow(unordered-iter) keyed emplace + histogram increments; each pair visited once
    for (const auto& [v, mult] : adj_[u]) {
      if (v <= u) continue;
      const std::int64_t shared = SharedPartners(u, v);
      pair_shared_.emplace(PairKey(u, v), shared);
      BumpHistogram(shared, mult);
    }
  }

  // Component labels by BFS; every label in [0, component_size_.size())
  // is live at construction.
  component_.assign(num_nodes_, 0);
  std::vector<char> seen(num_nodes_, 0);
  std::vector<NodeId> queue;
  for (NodeId start = 0; start < num_nodes_; ++start) {
    if (seen[start]) continue;
    const auto label = static_cast<std::uint32_t>(component_size_.size());
    queue.clear();
    queue.push_back(start);
    seen[start] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      component_[v] = label;
      // sgr-check: allow(unordered-iter) BFS discovery: labels and sizes are set facts, visit order is not observable
      for (const auto& [w, mult] : adj_[v]) {
        if (!seen[w]) {
          seen[w] = 1;
          queue.push_back(w);
        }
      }
    }
    component_size_.push_back(queue.size());
  }
  num_components_ = component_size_.size();

  mark_a_.assign(num_nodes_, 0);
  mark_b_.assign(num_nodes_, 0);
}

void PropertyTracker::ApplySwap(NodeId i, NodeId j, NodeId a, NodeId b) {
  RemoveEdgeInternal(i, j);
  RemoveEdgeInternal(a, b);
  AddEdgeInternal(i, b);
  AddEdgeInternal(a, j);
}

void PropertyTracker::BumpAdjacency(NodeId x, NodeId y, std::int32_t delta) {
  const std::int32_t bump = (x == y) ? 2 * delta : delta;
  AdjacencyMap& mx = adj_[x];
  if ((mx[y] += bump) == 0) mx.erase(y);
  if (x != y) {
    AdjacencyMap& my = adj_[y];
    if ((my[x] += delta) == 0) my.erase(x);
  }
}

std::int64_t PropertyTracker::SharedPartners(NodeId u, NodeId v) const {
  const AdjacencyMap& mu = adj_[u];
  const AdjacencyMap& mv = adj_[v];
  const AdjacencyMap& small = mu.size() <= mv.size() ? mu : mv;
  const AdjacencyMap& large = mu.size() <= mv.size() ? mv : mu;
  std::int64_t shared = 0;
  for (const auto& [w, mult] : small) {
    if (w == u || w == v) continue;
    const auto it = large.find(w);
    if (it != large.end()) {
      shared += static_cast<std::int64_t>(mult) *
                static_cast<std::int64_t>(it->second);
    }
  }
  return shared;
}

void PropertyTracker::BumpHistogram(std::int64_t shared,
                                    std::int64_t weight) {
  assert(shared >= 0);
  const auto index = static_cast<std::size_t>(shared);
  if (index >= esp_histogram_.size()) esp_histogram_.resize(index + 1, 0);
  esp_histogram_[index] += weight;
  assert(esp_histogram_[index] >= 0);
}

void PropertyTracker::MovePairShared(NodeId u, NodeId v,
                                     std::int64_t weight,
                                     std::int64_t delta) {
  const auto it = pair_shared_.find(PairKey(u, v));
  assert(it != pair_shared_.end());
  BumpHistogram(it->second, -weight);
  it->second += delta;
  BumpHistogram(it->second, weight);
}

void PropertyTracker::AddEdgeInternal(NodeId x, NodeId y) {
  if (mode_ == PropertyAnalysisMode::kFromScratch) {
    BumpAdjacency(x, y, +1);
    return;
  }
  if (x == y) {
    // A loop adds two x-entries to x's adjacency list (S_x += 2 d_x),
    // forms no triangles, never enters a shared-partner sum (w ranges
    // over w ∉ {u, v}), and cannot change connectivity.
    neighbor_degree_sum_[x] += 2 * static_cast<std::int64_t>(degree_[x]);
    triangles_->AddEdge(x, x);
    BumpAdjacency(x, x, +1);
    return;
  }
  neighbor_degree_sum_[x] += degree_[y];
  neighbor_degree_sum_[y] += degree_[x];

  // Shared-partner deltas read pre-insertion multiplicities, and the new
  // edge's own A_xy never appears in any shared count, so all of them
  // run BEFORE the adjacency bump. Only pairs that are currently
  // adjacent carry histogram weight.
  AdjacencyMap& ax = adj_[x];
  AdjacencyMap& ay = adj_[y];
  // sgr-check: allow(unordered-iter) per-distinct-pair integer moves, each pair touched exactly once
  for (const auto& [v, m_vy] : ay) {  // pairs {x, v}: new w = y term
    if (v == x || v == y) continue;
    const auto it = ax.find(v);
    if (it != ax.end()) MovePairShared(x, v, it->second, m_vy);
  }
  // sgr-check: allow(unordered-iter) per-distinct-pair integer moves, each pair touched exactly once
  for (const auto& [u, m_ux] : ax) {  // pairs {y, u}: new w = x term
    if (u == x || u == y) continue;
    const auto it = ay.find(u);
    if (it != ay.end()) MovePairShared(y, u, it->second, m_ux);
  }
  const auto own = ax.find(y);
  if (own != ax.end()) {
    // One more parallel copy of an adjacent pair: same shared count,
    // one more histogram weight.
    BumpHistogram(pair_shared_.find(PairKey(x, y))->second, 1);
  } else {
    const std::int64_t shared = SharedPartners(x, y);
    pair_shared_.emplace(PairKey(x, y), shared);
    BumpHistogram(shared, 1);
  }

  triangles_->AddEdge(x, y);
  BumpAdjacency(x, y, +1);
  MergeComponents(x, y);
}

void PropertyTracker::RemoveEdgeInternal(NodeId x, NodeId y) {
  if (mode_ == PropertyAnalysisMode::kFromScratch) {
    BumpAdjacency(x, y, -1);
    return;
  }
  if (x == y) {
    neighbor_degree_sum_[x] -= 2 * static_cast<std::int64_t>(degree_[x]);
    triangles_->RemoveEdge(x, x);
    BumpAdjacency(x, x, -1);
    return;
  }
  neighbor_degree_sum_[x] -= degree_[y];
  neighbor_degree_sum_[y] -= degree_[x];

  AdjacencyMap& ax = adj_[x];
  AdjacencyMap& ay = adj_[y];
  const auto own = ax.find(y);
  assert(own != ax.end());
  const auto ps = pair_shared_.find(PairKey(x, y));
  assert(ps != pair_shared_.end());
  BumpHistogram(ps->second, -1);
  if (own->second == 1) pair_shared_.erase(ps);

  // sgr-check: allow(unordered-iter) per-distinct-pair integer moves, each pair touched exactly once
  for (const auto& [v, m_vy] : ay) {  // pairs {x, v}: lose the w = y term
    if (v == x || v == y) continue;
    const auto it = ax.find(v);
    if (it != ax.end()) MovePairShared(x, v, it->second, -m_vy);
  }
  // sgr-check: allow(unordered-iter) per-distinct-pair integer moves, each pair touched exactly once
  for (const auto& [u, m_ux] : ax) {  // pairs {y, u}: lose the w = x term
    if (u == x || u == y) continue;
    const auto it = ay.find(u);
    if (it != ay.end()) MovePairShared(y, u, it->second, -m_ux);
  }

  triangles_->RemoveEdge(x, y);
  BumpAdjacency(x, y, -1);
  SplitComponents(x, y);
}

std::uint32_t PropertyTracker::AllocateComponentLabel() {
  if (!free_labels_.empty()) {
    const std::uint32_t label = free_labels_.back();
    free_labels_.pop_back();
    return label;
  }
  component_size_.push_back(0);
  return static_cast<std::uint32_t>(component_size_.size() - 1);
}

void PropertyTracker::MergeComponents(NodeId x, NodeId y) {
  const std::uint32_t lx = component_[x];
  const std::uint32_t ly = component_[y];
  if (lx == ly) return;
  // Relabel the smaller side by BFS; the other side's label is the
  // boundary, so the freshly inserted edge needs no special casing.
  const bool x_small = component_size_[lx] <= component_size_[ly];
  const NodeId start = x_small ? x : y;
  const std::uint32_t small_label = x_small ? lx : ly;
  const std::uint32_t big_label = x_small ? ly : lx;
  queue_a_.clear();
  queue_a_.push_back(start);
  component_[start] = big_label;
  for (std::size_t head = 0; head < queue_a_.size(); ++head) {
    // sgr-check: allow(unordered-iter) BFS relabel: the reached set, not the visit order, is the outcome
    for (const auto& [w, mult] : adj_[queue_a_[head]]) {
      if (component_[w] != small_label) continue;
      component_[w] = big_label;
      queue_a_.push_back(w);
    }
  }
  component_size_[big_label] += component_size_[small_label];
  component_size_[small_label] = 0;
  free_labels_.push_back(small_label);
  --num_components_;
}

void PropertyTracker::SplitComponents(NodeId x, NodeId y) {
  if (adj_[x].count(y) > 0) return;  // a parallel copy keeps them joined
  // Bidirectional BFS over the post-removal adjacency: the sides expand
  // in lockstep, so the cost is bounded by the smaller resulting
  // component; meeting the other side's marks proves connectivity.
  ++epoch_;
  queue_a_.clear();
  queue_b_.clear();
  queue_a_.push_back(x);
  mark_a_[x] = epoch_;
  queue_b_.push_back(y);
  mark_b_[y] = epoch_;
  std::size_t head_a = 0;
  std::size_t head_b = 0;
  const std::uint32_t old_label = component_[x];
  const auto detach = [&](const std::vector<NodeId>& side) {
    const std::uint32_t fresh = AllocateComponentLabel();
    for (const NodeId v : side) component_[v] = fresh;
    component_size_[fresh] = side.size();
    component_size_[old_label] -= side.size();
    ++num_components_;
  };
  for (;;) {
    if (head_a == queue_a_.size()) {
      detach(queue_a_);
      return;
    }
    // sgr-check: allow(unordered-iter) bidirectional BFS: connectivity and the detached set are order-free
    for (const auto& [w, mult] : adj_[queue_a_[head_a]]) {
      if (mark_b_[w] == epoch_) return;  // still connected
      if (mark_a_[w] == epoch_) continue;
      mark_a_[w] = epoch_;
      queue_a_.push_back(w);
    }
    ++head_a;
    if (head_b == queue_b_.size()) {
      detach(queue_b_);
      return;
    }
    // sgr-check: allow(unordered-iter) bidirectional BFS: connectivity and the detached set are order-free
    for (const auto& [w, mult] : adj_[queue_b_[head_b]]) {
      if (mark_a_[w] == epoch_) return;
      if (mark_b_[w] == epoch_) continue;
      mark_b_[w] = epoch_;
      queue_b_.push_back(w);
    }
    ++head_b;
  }
}

double PropertyTracker::ClusteringGlobal() const {
  if (mode_ == PropertyAnalysisMode::kFromScratch) {
    return NetworkClusteringCoefficient(MaterializeGraph());
  }
  if (num_nodes_ == 0) return 0.0;
  double total = 0.0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const std::size_t d = degree_[v];
    if (d >= 2) {
      total += 2.0 * static_cast<double>(triangles_->triangles(v)) /
               (static_cast<double>(d) * static_cast<double>(d - 1));
    }
  }
  return total / static_cast<double>(num_nodes_);
}

std::size_t PropertyTracker::NumComponents() const {
  if (mode_ == PropertyAnalysisMode::kFromScratch) {
    return CountComponents(MaterializeGraph());
  }
  return num_components_;
}

std::size_t PropertyTracker::LccSize() const {
  if (mode_ == PropertyAnalysisMode::kFromScratch) {
    const ComponentsResult components =
        ConnectedComponents(MaterializeGraph());
    return components.sizes.empty() ? 0
                                    : components.sizes[components.largest];
  }
  std::size_t largest = 0;
  for (const std::size_t size : component_size_) {
    largest = std::max(largest, size);
  }
  return largest;
}

std::int64_t PropertyTracker::Multiplicity(NodeId u, NodeId v) const {
  const auto it = adj_[u].find(v);
  return it == adj_[u].end() ? 0 : it->second;
}

Graph PropertyTracker::MaterializeGraph() const {
  Graph g(num_nodes_);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    // sgr-check: allow(unordered-iter) consumers are order-insensitive property sums; sorting here would change FP summation shapes locked by baselines
    for (const auto& [v, mult] : adj_[u]) {
      if (v < u) continue;
      const std::int32_t copies = (v == u) ? mult / 2 : mult;
      for (std::int32_t c = 0; c < copies; ++c) g.AddEdge(u, v);
    }
  }
  return g;
}

GraphProperties PropertyTracker::Snapshot() const {
  GraphProperties p;
  if (mode_ == PropertyAnalysisMode::kFromScratch) {
    const CsrGraph csr(MaterializeGraph());
    p.num_nodes = csr.NumNodes();
    p.average_degree = csr.AverageDegree();
    p.degree_dist = DegreeDistribution(csr);
    p.neighbor_connectivity = NeighborConnectivity(csr);
    ComputeTriangleProperties(csr, p);
    return p;
  }

  p.num_nodes = num_nodes_;
  p.average_degree = average_degree_;
  p.degree_dist = degree_dist_;

  // k̄nn(k), replicating NeighborConnectivity's summation shape exactly:
  // the oracle's per-node neighbor_degree_sum accumulates integer-valued
  // doubles, which is exact and equal to the tracked S_v, so the
  // division sequence below is bit-identical to the from-scratch pass.
  const std::size_t k_max = class_n_.empty() ? 0 : class_n_.size() - 1;
  {
    std::vector<double> sums(k_max + 1, 0.0);
    for (NodeId v = 0; v < num_nodes_; ++v) {
      const std::size_t k = degree_[v];
      if (k == 0) continue;
      sums[k] += static_cast<double>(neighbor_degree_sum_[v]) /
                 static_cast<double>(k);
    }
    p.neighbor_connectivity.assign(k_max + 1, 0.0);
    for (std::size_t k = 1; k <= k_max; ++k) {
      if (class_n_[k] > 0) {
        p.neighbor_connectivity[k] =
            sums[k] / static_cast<double>(class_n_[k]);
      }
    }
  }

  // c̄ and c̄(k) from the composed triangle counts, in the oracles' node
  // order and operand shapes (ComputeTriangleProperties and
  // ExtractDegreeDependentClustering respectively).
  p.clustering_global = ClusteringGlobal();
  {
    std::vector<double> sums(class_n_.size(), 0.0);
    p.clustering_by_degree.assign(class_n_.size(), 0.0);
    for (NodeId v = 0; v < num_nodes_; ++v) {
      const std::size_t k = degree_[v];
      if (k >= 2) {
        sums[k] += 2.0 * static_cast<double>(triangles_->triangles(v)) /
                   (static_cast<double>(k) * static_cast<double>(k - 1));
      }
    }
    for (std::size_t k = 2; k < class_n_.size(); ++k) {
      if (class_n_[k] > 0) {
        p.clustering_by_degree[k] =
            sums[k] / static_cast<double>(class_n_[k]);
      }
    }
  }

  // P(s): the oracle's histogram ends at the largest shared count among
  // currently adjacent pairs, so trailing weights that removals zeroed
  // out are trimmed before normalizing.
  {
    std::size_t size = esp_histogram_.size();
    while (size > 0 && esp_histogram_[size - 1] == 0) --size;
    p.esp_dist.assign(size, 0.0);
    if (num_edges_ > 0) {
      for (std::size_t s = 0; s < size; ++s) {
        p.esp_dist[s] = static_cast<double>(esp_histogram_[s]) /
                        static_cast<double>(num_edges_);
      }
    }
  }
  return p;
}

}  // namespace sgr
