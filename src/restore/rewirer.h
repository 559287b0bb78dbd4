#ifndef SGR_RESTORE_REWIRER_H_
#define SGR_RESTORE_REWIRER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace sgr {

/// Options for the rewiring phase (Algorithm 6).
struct RewireOptions {
  /// Coefficient RC of the number of rewiring attempts: R = RC * |E~rew|.
  /// The paper uses RC = 500 (following Orsini et al.).
  double rewiring_coefficient = 500.0;

  /// When true, the engine fills RewireStats::curve with
  /// kConvergenceSamples evenly spaced convergence samples, each read
  /// between rounds from the engine's own state: the objective and
  /// triangle counts of its TriangleTracker, plus one connected-components
  /// pass over the working graph per sampling round. Pure observation:
  /// the proposal stream, the acceptance decisions, and the rewired graph
  /// are byte-identical with tracking on or off (no extra RNG draws, no
  /// objective perturbation).
  bool track_properties = false;

  /// Adaptive stop: when `track_properties` is set and `stop_epsilon` is
  /// positive, the engine halts as soon as the tracked normalized L1
  /// distance to the target clustering is <= stop_epsilon
  /// (RewireStats::stopped_early records that it fired, and
  /// RewireStats::attempts then reports the attempts actually made).
  /// 0 disables the stop.
  double stop_epsilon = 0.0;
};

/// Options of the rewiring engine's round schedule
/// (RewireToClusteringParallel).
///
/// `threads` is an execution knob only: for a fixed `batch_size` the
/// engine's output — the rewired graph, every RewireStats field, and the
/// rewiring objective trajectory — is byte-identical for every thread
/// count, because the proposal stream is drawn from a per-round RNG
/// derived purely from (seed, round) and commits happen sequentially in
/// canonical batch order. `batch_size` IS an algorithm knob: changing it
/// changes which proposals are scored against which tracker state, so it
/// selects a different (equally valid) optimization trajectory.
struct ParallelRewireOptions {
  /// Proposals drawn and speculatively scored per round. 0 lets the
  /// engine pick its default (kDefaultRewireBatch); 1 is the paper's
  /// one-proposal-at-a-time schedule.
  std::size_t batch_size = 0;

  /// Worker threads for the speculative scoring phase (0 = hardware
  /// concurrency, 1 = fully inline). Never changes results.
  std::size_t threads = 1;
};

/// Default proposals-per-round of the rewiring engine when
/// ParallelRewireOptions::batch_size is 0. Large enough to amortize the
/// per-round fan-out, small enough that intra-round conflicts stay rare.
inline constexpr std::size_t kDefaultRewireBatch = 256;

/// One point of the rewiring convergence curve recorded when
/// RewireOptions::track_properties is on: the swap-sensitive properties
/// of the working graph after `attempts` trial swaps.
struct ConvergenceSample {
  std::size_t attempts = 0;        ///< attempts completed at this sample
  double objective = 0.0;          ///< normalized L1 clustering distance
  double clustering_global = 0.0;  ///< c̄ of the working graph
  std::size_t components = 0;      ///< connected components
  std::size_t lcc = 0;             ///< largest-component size
};

/// Number of evenly spaced convergence samples a tracked run records.
/// Fixed so per-sample aggregation across trials lines up index-by-index.
inline constexpr std::size_t kConvergenceSamples = 16;

/// Outcome statistics of a rewiring run.
struct RewireStats {
  std::size_t attempts = 0;          ///< R, total trial swaps (actual count
                                     ///  when the adaptive stop fires)
  std::size_t accepted = 0;          ///< swaps that reduced the objective
  double initial_distance = 0.0;     ///< normalized L1 before rewiring
  double final_distance = 0.0;       ///< normalized L1 after rewiring

  // Round accounting.
  std::size_t rounds = 0;        ///< proposal batches drawn
  std::size_t evaluated = 0;     ///< well-formed proposals scored speculatively
  std::size_t conflicts = 0;     ///< proposals dropped: edge re-rewired earlier in the round
  std::size_t reevaluated = 0;   ///< stale scores re-derived at commit time

  // Property tracking (RewireOptions::track_properties). `curve` holds
  // exactly kConvergenceSamples points for a tracked run that rewired
  // anything, padded with the final state when the adaptive stop fired;
  // empty when tracking is off or the guard paths returned early.
  std::vector<ConvergenceSample> curve;
  bool stopped_early = false;    ///< the stop_epsilon halt fired
};

/// Rewires edges of `g` so that its degree-dependent clustering coefficient
/// approaches `target_clustering` (Algorithm 6). This is the one rewiring
/// engine: every restoration method and the dK-2.5 generator run it.
///
/// Edge ids below `num_protected_edges` form E' and are never rewired: the
/// proposed method protects the sampled subgraph (E~rew = E~ \ E'), which is
/// both what preserves the subgraph structure and the source of its speedup
/// over Gjoka et al.'s variant (which passes 0 and rewires everything).
/// `num_protected_edges > g.NumEdges()` leaves nothing to rewire and
/// returns empty stats (as does any candidate set smaller than 2).
///
/// Each of the R = RC * |E~rew| attempts draws an ordered pair of distinct
/// candidate edges, picks a uniformly random endpoint orientation
/// ((i,j),(a,b)) with deg(i) = deg(a) (the attempt fails if none exists),
/// and replaces the pair with ((i,b),(a,j)) iff the normalized L1 distance
/// between the present and target degree-dependent clustering strictly
/// decreases. Degree-matched swaps preserve the degree vector and joint
/// degree matrix exactly.
///
/// The attempts run as rounds of `parallel.batch_size` proposals. Every
/// round:
///   1. draws its proposal batch from a deterministic per-round RNG
///      stream (DeriveRoundSeed(seed, ..., round) — independent of the
///      worker count),
///   2. scores each proposal's objective delta speculatively against the
///      frozen round-start tracker state, in parallel on up to
///      `parallel.threads` workers (TriangleTracker::EvaluateSwapDelta is
///      const and race-free),
///   3. commits in canonical batch order: speculatively non-improving
///      proposals are rejected; improving ones whose conflict footprint
///      (four endpoints + touched degree classes) overlaps an earlier
///      commit of the same round are re-scored against the live state
///      first; proposals whose edge ids were already rewired this round
///      are dropped.
///
/// Batch size 1 is the paper's own schedule: every proposal is scored
/// against the state its predecessor left. Larger batches amortize the
/// per-round cost and select a different, equally valid trajectory.
///
/// The commit step is the only writer, so the rewired graph and every
/// RewireStats field are byte-identical for every `parallel.threads`
/// value — the intra-trial extension of the trial-level determinism
/// contract RunExperiments locks. Acceptance scores every proposal from
/// exact integer triangle counts, and the final distance is recomputed
/// from scratch, so no floating-point drift reaches a decision.
///
/// `seed` drives all randomness; callers holding an Rng should pass one
/// engine draw (rng.engine()()).
RewireStats RewireToClusteringParallel(
    Graph& g, std::size_t num_protected_edges,
    const std::vector<double>& target_clustering,
    const RewireOptions& options, const ParallelRewireOptions& parallel,
    std::uint64_t seed);

}  // namespace sgr

#endif  // SGR_RESTORE_REWIRER_H_
