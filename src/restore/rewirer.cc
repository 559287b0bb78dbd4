#include "restore/rewirer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>

#include "analysis/properties.h"
#include "dk/triangle_tracker.h"
#include "exp/parallel.h"
#include "graph/components.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace sgr {

namespace {

/// One candidate 2-swap: replace edges e1 = (i, j) and e2 = (a, b) with
/// (i, b) and (a, j). `valid` is false for attempts that cannot improve
/// (identical edge draw, no degree-matched orientation, no-op swap).
struct SwapProposal {
  EdgeId e1 = 0;
  EdgeId e2 = 0;
  NodeId i = 0, j = 0, a = 0, b = 0;
  bool valid = false;
  double delta = 0.0;                   // speculative objective delta
  std::vector<std::uint32_t> touched;   // degree classes the score read
};

/// Draws one attempt: an ordered pair of candidate edge ids, then a
/// uniform pick among the degree-matched endpoint orientations. Fills `p`
/// in place (leaving p.touched alone, so the proposal slots keep their
/// vector capacity across rounds).
void DrawProposal(const Graph& g, std::size_t num_protected_edges,
                  std::size_t num_candidates, Rng& rng, SwapProposal& p) {
  p.valid = false;
  p.e1 = num_protected_edges + rng.NextIndex(num_candidates);
  p.e2 = num_protected_edges + rng.NextIndex(num_candidates);
  if (p.e1 == p.e2) return;
  const Edge edge1 = g.edge(p.e1);
  const Edge edge2 = g.edge(p.e2);

  // Orientations ((i,j),(a,b)) with deg(i) == deg(a); pick uniformly
  // among the valid ones.
  struct Orientation {
    NodeId i, j, a, b;
  };
  std::array<Orientation, 4> all = {
      Orientation{edge1.u, edge1.v, edge2.u, edge2.v},
      Orientation{edge1.u, edge1.v, edge2.v, edge2.u},
      Orientation{edge1.v, edge1.u, edge2.u, edge2.v},
      Orientation{edge1.v, edge1.u, edge2.v, edge2.u}};
  std::array<Orientation, 4> valid;
  std::size_t num_valid = 0;
  for (const Orientation& o : all) {
    if (g.Degree(o.i) == g.Degree(o.a)) valid[num_valid++] = o;
  }
  if (num_valid == 0) return;
  const Orientation o = valid[rng.NextIndex(num_valid)];

  // Swaps that leave the edge multiset unchanged cannot improve.
  if (o.i == o.a || o.j == o.b) return;

  p.i = o.i;
  p.j = o.j;
  p.a = o.a;
  p.b = o.b;
  p.valid = true;
}

/// Stream tag of the per-round proposal RNG (see DeriveRoundSeed).
constexpr std::uint64_t kRewireProposalStream = 0x5e71ULL;

/// Convergence samples due after `attempts_done` of `total` attempts:
/// the samples split the attempt budget into kConvergenceSamples even
/// slices, sample i due at total * (i + 1) / kConvergenceSamples, the
/// last one landing exactly on `total`.
std::size_t SamplesDue(std::size_t total, std::size_t attempts_done) {
  std::size_t due = 0;
  while (due < kConvergenceSamples &&
         total * (due + 1) / kConvergenceSamples <= attempts_done) {
    ++due;
  }
  return due;
}

/// The convergence sample of the current state, read from what the
/// engine already keeps: the objective the tracker maintains, c̄ from its
/// triangle counts over the frozen degrees, and one O(n + m) component
/// pass over `g` (in sync with the tracker at every round end). All
/// reads — no RecomputeObjective, no RNG draws — so a tracked run's
/// trajectory is identical to an untracked one.
ConvergenceSample TakeSample(const Graph& g, const TriangleTracker& tracker,
                             std::size_t attempts_done) {
  ConvergenceSample sample;
  sample.attempts = attempts_done;
  sample.objective = tracker.Objective();
  sample.clustering_global =
      ClusteringFromTriangles(g, tracker.triangle_counts());
  const ComponentsResult components = ConnectedComponents(g);
  sample.components = components.sizes.size();
  sample.lcc =
      components.sizes.empty() ? 0 : components.sizes[components.largest];
  return sample;
}

/// Appends copies of the current state's sample until the curve holds
/// `count` points: the samples that became due this round, or, at the
/// end, the padding an adaptive-stop run leaves behind so per-index
/// aggregation across trials stays aligned. One sample pass per call.
void ExtendCurve(RewireStats& stats, std::size_t count, const Graph& g,
                 const TriangleTracker& tracker, std::size_t attempts_done) {
  if (stats.curve.size() >= count) return;
  stats.curve.resize(count, TakeSample(g, tracker, attempts_done));
}

/// Feeds the metrics registry once per rewiring run — never per attempt.
void RecordRewireMetrics(const RewireStats& stats) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricAdd("rewire.attempts", stats.attempts);
  obs::MetricAdd("rewire.accepted", stats.accepted);
  obs::MetricAdd("rewire.rounds", stats.rounds);
  obs::MetricAdd("rewire.evaluated", stats.evaluated);
  obs::MetricAdd("rewire.conflicts", stats.conflicts);
  obs::MetricAdd("rewire.reevaluated", stats.reevaluated);
}

}  // namespace

RewireStats RewireToClusteringParallel(
    Graph& g, std::size_t num_protected_edges,
    const std::vector<double>& target_clustering,
    const RewireOptions& options, const ParallelRewireOptions& parallel,
    std::uint64_t seed) {
  RewireStats stats;
  if (num_protected_edges >= g.NumEdges()) return stats;
  const std::size_t num_candidates = g.NumEdges() - num_protected_edges;
  if (num_candidates < 2) return stats;

  TriangleTracker tracker(g, target_clustering);
  stats.initial_distance = tracker.Objective();
  stats.final_distance = stats.initial_distance;

  // R = RC * |E~rew|.
  const std::size_t total_attempts = static_cast<std::size_t>(std::llround(
      options.rewiring_coefficient * static_cast<double>(num_candidates)));
  stats.attempts = total_attempts;
  if (total_attempts == 0) return stats;

  // Convergence samples read the state between rounds (after the
  // single-writer commit step), so they are race-free and cannot perturb
  // the byte-identical determinism across thread counts.
  const bool tracking = options.track_properties;

  const std::size_t batch_size =
      parallel.batch_size == 0 ? kDefaultRewireBatch : parallel.batch_size;
  const std::size_t threads = ResolveThreadCount(parallel.threads);

  // One pool for the whole run; rounds reuse it. threads == 1 stays fully
  // inline — the scoring loop below never touches the pool.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  std::vector<SwapProposal> proposals(batch_size);

  // Dirty footprint of the commits of the current round, stamped by round
  // number (stamp 0 = clean; rounds are 1-based below).
  std::vector<std::uint64_t> node_stamp(g.NumNodes(), 0);
  std::vector<std::uint64_t> class_stamp;
  std::vector<EdgeId> committed_edges;
  std::vector<std::uint32_t> commit_classes;

  // Acceptance never reads the incrementally maintained objective —
  // every score derives fresh from the exact integer T(k) state — and the
  // reported final distance is recomputed from scratch below, so the run
  // needs no mid-run drift control.
  std::size_t attempts_done = 0;
  std::uint64_t round = 0;
  bool stopped = tracking && options.stop_epsilon > 0.0 &&
                 tracker.Objective() <= options.stop_epsilon;
  if (stopped) {
    stats.stopped_early = true;
    stats.attempts = 0;
  }
  while (!stopped && attempts_done < total_attempts) {
    obs::Span round_span("rewire_round", "rewire");
    ++round;
    ++stats.rounds;
    const std::size_t this_batch =
        std::min(batch_size, total_attempts - attempts_done);

    // 1. Draw the round's proposals from a deterministic per-round
    //    stream: a pure function of (seed, round), never of the worker
    //    count or of scheduling.
    Rng round_rng(DeriveRoundSeed(seed, kRewireProposalStream, round));
    for (std::size_t p = 0; p < this_batch; ++p) {
      DrawProposal(g, num_protected_edges, num_candidates, round_rng,
                   proposals[p]);
      if (proposals[p].valid) ++stats.evaluated;
    }

    // 2. Score every well-formed proposal against the frozen round-start
    //    tracker state, in parallel. Each worker writes only its own
    //    proposal slots; the tracker is read-only here.
    const auto score = [&](std::size_t p) {
      SwapProposal& prop = proposals[p];
      if (!prop.valid) return;
      prop.touched.clear();
      prop.delta = tracker.EvaluateSwapDelta(prop.i, prop.j, prop.a,
                                             prop.b, &prop.touched);
    };
    if (pool == nullptr) {
      for (std::size_t p = 0; p < this_batch; ++p) score(p);
    } else {
      // One contiguous chunk of ⌈B / threads⌉ proposals per worker: a
      // round is `threads` claims rather than B contended fetch_adds, and
      // workers write disjoint runs of proposal slots.
      const std::size_t chunk = (this_batch + threads - 1) / threads;
      const std::size_t chunks = (this_batch + chunk - 1) / chunk;
      PoolFor(*pool, chunks, [&](std::size_t c) {
        const std::size_t end = std::min(this_batch, (c + 1) * chunk);
        for (std::size_t p = c * chunk; p < end; ++p) score(p);
      });
    }

    // 3. Commit in canonical batch order — the single writer, identical
    //    for every thread count.
    committed_edges.clear();
    for (std::size_t p = 0; p < this_batch; ++p) {
      SwapProposal& prop = proposals[p];
      if (!prop.valid) continue;
      // Speculative filter: not improving against round-start state.
      if (!(prop.delta < 0.0)) continue;
      // An earlier commit of this round already rewired one of the
      // proposal's edges: its recorded endpoints are stale, drop it.
      if (std::find(committed_edges.begin(), committed_edges.end(),
                    prop.e1) != committed_edges.end() ||
          std::find(committed_edges.begin(), committed_edges.end(),
                    prop.e2) != committed_edges.end()) {
        ++stats.conflicts;
        continue;
      }
      // The score read the four endpoint adjacencies and the touched
      // degree classes; if an earlier commit wrote any of them the value
      // is stale and must be re-derived against the live state.
      bool dirty = node_stamp[prop.i] == round ||
                   node_stamp[prop.j] == round ||
                   node_stamp[prop.a] == round ||
                   node_stamp[prop.b] == round;
      for (std::size_t t = 0; !dirty && t < prop.touched.size(); ++t) {
        const std::uint32_t k = prop.touched[t];
        dirty = k < class_stamp.size() && class_stamp[k] == round;
      }
      double delta = prop.delta;
      if (dirty) {
        ++stats.reevaluated;
        delta = tracker.EvaluateSwapDelta(prop.i, prop.j, prop.a, prop.b);
        if (!(delta < 0.0)) continue;
      }
      commit_classes.clear();
      tracker.ApplySwap(prop.i, prop.j, prop.a, prop.b, &commit_classes);
      g.ReplaceEdge(prop.e1, prop.i, prop.b);
      g.ReplaceEdge(prop.e2, prop.a, prop.j);
      ++stats.accepted;
      committed_edges.push_back(prop.e1);
      committed_edges.push_back(prop.e2);
      node_stamp[prop.i] = round;
      node_stamp[prop.j] = round;
      node_stamp[prop.a] = round;
      node_stamp[prop.b] = round;
      for (const std::uint32_t k : commit_classes) {
        if (k >= class_stamp.size()) class_stamp.resize(k + 1, 0);
        class_stamp[k] = round;
      }
    }

    attempts_done += this_batch;
    if (tracking) {
      ExtendCurve(stats, SamplesDue(total_attempts, attempts_done), g,
                  tracker, attempts_done);
      if (options.stop_epsilon > 0.0 &&
          tracker.Objective() <= options.stop_epsilon) {
        stopped = true;
        stats.stopped_early = true;
        stats.attempts = attempts_done;
      }
    }
  }
  if (tracking) {
    ExtendCurve(stats, kConvergenceSamples, g, tracker, attempts_done);
  }
  tracker.RecomputeObjective();
  stats.final_distance = tracker.Objective();
  RecordRewireMetrics(stats);
  return stats;
}

}  // namespace sgr
