#include "dk/triangle_tracker.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "dk/dk_extract.h"

namespace sgr {

namespace {

/// Calls visit(w, m_xw * m_yw) for every distinct id w present in both
/// sorted runs, in ascending id order. Walks the shorter run; each id's
/// multiplicity in the longer one is found with a lower_bound that only
/// moves forward, so a hub partner costs O(d_short · log d_long).
template <typename Visit>
void ForEachCommonNeighbor(const std::vector<NodeId>& x,
                           const std::vector<NodeId>& y, const Visit& visit) {
  const std::vector<NodeId>& p = x.size() <= y.size() ? x : y;
  const std::vector<NodeId>& q = x.size() <= y.size() ? y : x;
  auto q_it = q.begin();
  for (auto p_it = p.begin(); p_it != p.end();) {
    const NodeId w = *p_it;
    const auto p_next = std::find_if(p_it, p.end(),
                                     [w](NodeId id) { return id != w; });
    q_it = std::lower_bound(q_it, q.end(), w);
    if (q_it == q.end()) return;
    const auto q_next = std::find_if(q_it, q.end(),
                                     [w](NodeId id) { return id != w; });
    if (q_next != q_it) visit(w, (p_next - p_it) * (q_next - q_it));
    p_it = p_next;
    q_it = q_next;
  }
}

/// Summed (degree class, ΔT) pairs in insertion order. The first
/// kInline classes live in place, so scoring a swap allocates nothing
/// unless it touches more distinct classes than that.
class ClassDeltas {
 public:
  void Add(std::uint32_t k, std::int64_t d) {
    for (std::size_t e = 0; e < inline_size_; ++e) {
      if (inline_[e].k == k) {
        inline_[e].d += d;
        return;
      }
    }
    if (inline_size_ < kInline) {
      inline_[inline_size_++] = {k, d};
      return;
    }
    for (Entry& entry : spill_) {
      if (entry.k == k) {
        entry.d += d;
        return;
      }
    }
    spill_.push_back({k, d});
  }

  template <typename Visit>
  void ForEach(const Visit& visit) const {
    for (std::size_t e = 0; e < inline_size_; ++e) {
      visit(inline_[e].k, inline_[e].d);
    }
    for (const Entry& entry : spill_) visit(entry.k, entry.d);
  }

 private:
  struct Entry {
    std::uint32_t k;
    std::int64_t d;
  };
  static constexpr std::size_t kInline = 16;
  std::array<Entry, kInline> inline_{};
  std::size_t inline_size_ = 0;
  std::vector<Entry> spill_;
};

}  // namespace

TriangleTracker::TriangleTracker(const Graph& g,
                                 std::vector<double> target_clustering)
    : adj_(g.NumNodes()),
      t_(CountTrianglesPerNode(g)),
      degree_(g.NumNodes(), 0),
      target_(std::move(target_clustering)) {
  std::uint32_t k_max = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    degree_[v] = static_cast<std::uint32_t>(g.Degree(v));
    k_max = std::max(k_max, degree_[v]);
  }
  const std::size_t classes =
      std::max<std::size_t>(k_max + 1, target_.size());
  target_.resize(classes, 0.0);
  class_n_.assign(classes, 0);
  class_t_.assign(classes, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ++class_n_[degree_[v]];
    class_t_[degree_[v]] += t_[v];
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    adj_[v] = g.adjacency(v);
    std::sort(adj_[v].begin(), adj_[v].end());
  }
  for (double c : target_) target_mass_ += c;
  RecomputeObjective();
}

double TriangleTracker::ClassTerm(std::uint32_t k) const {
  return std::abs(PresentClustering(k) - target_[k]);
}

double TriangleTracker::ClassTermWithDelta(std::uint32_t k,
                                           std::int64_t dt) const {
  if (k < 2 || k >= class_n_.size() || class_n_[k] == 0) {
    // c̄(k) is identically 0 for these classes, with or without dt.
    return std::abs(target_[k]);
  }
  const double clustering =
      2.0 * static_cast<double>(class_t_[k] + dt) /
      (static_cast<double>(k) * static_cast<double>(k - 1) *
       static_cast<double>(class_n_[k]));
  return std::abs(clustering - target_[k]);
}

double TriangleTracker::PresentClustering(std::uint32_t k) const {
  if (k < 2 || k >= class_n_.size() || class_n_[k] == 0) return 0.0;
  return 2.0 * static_cast<double>(class_t_[k]) /
         (static_cast<double>(k) * static_cast<double>(k - 1) *
          static_cast<double>(class_n_[k]));
}

void TriangleTracker::RecomputeObjective() {
  objective_num_ = 0.0;
  for (std::uint32_t k = 0; k < target_.size(); ++k) {
    objective_num_ += ClassTerm(k);
  }
}

void TriangleTracker::BumpClassTriangles(std::uint32_t k,
                                         std::int64_t delta) {
  if (delta == 0) return;
  objective_num_ -= ClassTerm(k);
  class_t_[k] += delta;
  objective_num_ += ClassTerm(k);
  if (touched_sink_ != nullptr) touched_sink_->push_back(k);
}

std::int64_t TriangleTracker::Multiplicity(NodeId u, NodeId v) const {
  const auto [lo, hi] = std::equal_range(adj_[u].begin(), adj_[u].end(), v);
  return hi - lo;
}

void TriangleTracker::ApplyTriangleDelta(NodeId u, NodeId v,
                                         std::int64_t sign) {
  std::int64_t common = 0;
  ForEachCommonNeighbor(adj_[u], adj_[v], [&](NodeId w, std::int64_t weight) {
    if (w == u || w == v) return;
    common += weight;
    t_[w] += sign * weight;
    BumpClassTriangles(degree_[w], sign * weight);
  });
  t_[u] += sign * common;
  BumpClassTriangles(degree_[u], sign * common);
  t_[v] += sign * common;
  BumpClassTriangles(degree_[v], sign * common);
}

void TriangleTracker::RemoveEdge(NodeId u, NodeId v) {
  const auto drop = [this](NodeId from, NodeId to, std::ptrdiff_t copies) {
    std::vector<NodeId>& run = adj_[from];
    const auto it = std::lower_bound(run.begin(), run.end(), to);
    assert(run.end() - it >= copies && *(it + copies - 1) == to);
    run.erase(it, it + copies);
  };
  if (u == v) {
    drop(u, u, 2);  // a loop is stored twice
    return;
  }
  ApplyTriangleDelta(u, v, -1);
  drop(u, v, 1);
  drop(v, u, 1);
}

void TriangleTracker::AddEdge(NodeId u, NodeId v) {
  const auto insert = [this](NodeId into, NodeId id, std::size_t copies) {
    std::vector<NodeId>& run = adj_[into];
    run.insert(std::upper_bound(run.begin(), run.end(), id), copies, id);
  };
  if (u == v) {
    insert(u, u, 2);
    return;
  }
  ApplyTriangleDelta(u, v, +1);
  insert(u, v, 1);
  insert(v, u, 1);
}

double TriangleTracker::EvaluateSwapDelta(
    NodeId i, NodeId j, NodeId a, NodeId b,
    std::vector<std::uint32_t>* touched_classes) const {
  // The four operations of the swap are scored in sequence against the
  // frozen tracker state plus a tiny overlay of the multiplicity changes
  // the preceding operations made. Operations only ever modify pairs
  // among the four endpoints, so the overlay holds at most 4 entries
  // (pairs normalized u <= v; a loop at v stores the A_vv convention of
  // twice the loop count).
  struct PairDelta {
    NodeId u, v;
    std::int64_t d;
  };
  std::array<PairDelta, 4> overlay;
  std::size_t overlay_size = 0;
  const auto bump_pair = [&](NodeId u, NodeId v, std::int64_t d) {
    if (u > v) std::swap(u, v);
    for (std::size_t k = 0; k < overlay_size; ++k) {
      if (overlay[k].u == u && overlay[k].v == v) {
        overlay[k].d += d;
        return;
      }
    }
    overlay[overlay_size++] = {u, v, d};
  };
  // A'_uv: base multiplicity plus whatever the preceding operations did.
  const auto overlaid = [&](NodeId u, NodeId v) -> std::int64_t {
    const std::int64_t base = Multiplicity(u, v);
    const NodeId lo = u <= v ? u : v;
    const NodeId hi = u <= v ? v : u;
    for (std::size_t k = 0; k < overlay_size; ++k) {
      if (overlay[k].u == lo && overlay[k].v == hi) {
        return base + overlay[k].d;
      }
    }
    return base;
  };

  // Net T(k) deltas across the four operations, in first-touch order.
  // Linear scan: the distinct degree classes among two nodes' common
  // neighbors are few.
  ClassDeltas class_delta;
  const auto add_class = [&](std::uint32_t k, std::int64_t d) {
    if (d != 0) class_delta.Add(k, d);
  };

  const std::array<NodeId, 4> endpoints = {i, j, a, b};
  const auto is_endpoint = [&](NodeId w) {
    return w == i || w == j || w == a || w == b;
  };

  struct Op {
    NodeId u, v;
    std::int64_t sign;
  };
  const std::array<Op, 4> ops = {Op{i, j, -1}, Op{a, b, -1}, Op{i, b, +1},
                                 Op{a, j, +1}};
  for (const Op& op : ops) {
    if (op.u == op.v) {
      bump_pair(op.u, op.u, 2 * op.sign);  // loops form no triangles
      continue;
    }
    // Base pass over the frozen runs: a non-endpoint common neighbor w is
    // never touched by the overlay (operations only modify endpoint
    // pairs), so its weight reads straight from the base state.
    std::int64_t common = 0;
    ForEachCommonNeighbor(adj_[op.u], adj_[op.v],
                          [&](NodeId w, std::int64_t weight) {
                            if (is_endpoint(w)) return;
                            common += weight;
                            add_class(degree_[w], op.sign * weight);
                          });
    // Correction pass: endpoint common neighbors read through the
    // overlay (deduplicated — endpoints may coincide, e.g. j == a).
    for (std::size_t e = 0; e < endpoints.size(); ++e) {
      const NodeId w = endpoints[e];
      if (w == op.u || w == op.v) continue;
      bool duplicate = false;
      for (std::size_t f = 0; f < e; ++f) {
        if (endpoints[f] == w) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      const std::int64_t weight = overlaid(op.u, w) * overlaid(op.v, w);
      if (weight == 0) continue;
      common += weight;
      add_class(degree_[w], op.sign * weight);
    }
    add_class(degree_[op.u], op.sign * common);
    add_class(degree_[op.v], op.sign * common);
    bump_pair(op.u, op.v, op.sign);
  }

  double delta = 0.0;
  class_delta.ForEach([&](std::uint32_t k, std::int64_t d) {
    if (d == 0) return;
    delta += ClassTermWithDelta(k, d) - ClassTerm(k);
    if (touched_classes != nullptr) touched_classes->push_back(k);
  });
  return delta;
}

void TriangleTracker::ApplySwap(NodeId i, NodeId j, NodeId a, NodeId b,
                                std::vector<std::uint32_t>* touched_classes) {
  touched_sink_ = touched_classes;
  RemoveEdge(i, j);
  RemoveEdge(a, b);
  AddEdge(i, b);
  AddEdge(a, j);
  touched_sink_ = nullptr;
}

}  // namespace sgr
