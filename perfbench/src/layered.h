// One experiment trial rebuilt from the library's public layer functions,
// in RunExperiment's order and with its RNG draws, so that its L1 vector
// matches an untraced RunExperiment call bit for bit. The traced run
// records a span around every layer call; the timed run replays only the
// crawls, to hand the generative methods RunExperiment's walk.
#ifndef PERFBENCH_LAYERED_H_
#define PERFBENCH_LAYERED_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/properties.h"
#include "bench.h"
#include "dk/joint_degree_matrix.h"
#include "exp/runner.h"
#include "graph/csr_graph.h"
#include "restore/target_degree_vector.h"
#include "sampling/sampling_list.h"
#include "sampling/subgraph.h"

namespace perfbench {

/// Everything the traced run and its checks need from one trial.
struct LayeredTrial {
  /// Same methods, order and distances as RunExperiment returns.
  std::vector<sgr::MethodRunResult> results;
  /// Properties of every evaluated graph, parallel to `results`.
  std::vector<sgr::GraphProperties> generated;

  sgr::SamplingList walk;
  std::size_t oracle_queries = 0;  ///< summed over every crawl

  // Inputs of the Proposed assembly and rewiring calls, kept so that the
  // single-thread reference can repeat both calls on the same input.
  sgr::Subgraph sub;
  sgr::LocalEstimates estimates;
  sgr::TargetDegreeVectorResult targets;
  sgr::JointDegreeMatrix m_star;
  std::uint64_t assemble_seed = 0;
  std::uint64_t rewire_seed = 0;
  std::size_t protected_edges = 0;
  std::size_t assembled_edges = 0;
  std::size_t assemble_pairs = 0;  ///< "assemble.pairs" counter delta
  double rewire_rss_delta_mb = 0.0;
  std::size_t evaluated_edges = 0;  ///< edges of every evaluated graph
};

/// The crawls of one RunExperiment trial.
struct TrialCrawls {
  struct Crawl {
    sgr::MethodKind kind = sgr::MethodKind::kBfs;
    sgr::SamplingList sample;
    std::size_t queries = 0;  ///< distinct nodes the crawl queried
  };
  std::vector<Crawl> baselines;  ///< BFS, snowball, forest fire, as wanted
  sgr::SamplingList walk;        ///< shared by RW, Gjoka and Proposed
  std::size_t walk_queries = 0;
  bool has_walk = false;
};

/// Makes the crawls of a trial with RunExperiment's RNG draws, starting
/// from a fresh `rng` seeded with the trial's run seed, and leaves `rng`
/// where RunExperiment's generative methods start to draw. Requires the
/// paper's default crawl: a simple random walk on the cooperative oracle.
TrialCrawls CrawlTrial(const sgr::CsrGraph& original,
                       const sgr::ExperimentConfig& config, sgr::Rng& rng,
                       SpanLog& log);

/// The RestorationOptions RunExperiment hands the generative methods.
sgr::RestorationOptions WalkRestorationOptions(
    const sgr::ExperimentConfig& config);

/// Runs trial `run_seed` of `config` on `original`. Requires CrawlTrial's
/// default crawl and the batched rewiring and parallel assembly engines,
/// which are what the workloads use.
LayeredTrial RunLayered(const sgr::CsrGraph& original,
                        const sgr::GraphProperties& original_properties,
                        const sgr::ExperimentConfig& config,
                        std::uint64_t run_seed, SpanLog& log);

/// The RewireOptions RestoreProposed derives from `config`.
sgr::RewireOptions ProposedRewireOptions(const sgr::ExperimentConfig& config);

/// True iff the first `sub.NumEdges()` edges of `restored` are exactly the
/// subgraph's edges, which Algorithm 5 copies first and rewiring protects.
bool KeepsProtectedEdges(const sgr::Graph& restored, const sgr::Graph& sub);

/// Byte-level equality of two graphs: edge list and adjacency order.
bool SameGraph(const sgr::Graph& a, const sgr::Graph& b);

/// Field-by-field equality of two rewiring statistics.
bool SameRewireStats(const sgr::RewireStats& a, const sgr::RewireStats& b);

/// Bitwise equality of every property of two analyses.
bool SameProperties(const sgr::GraphProperties& a,
                    const sgr::GraphProperties& b);

/// Bitwise equality of two per-property distance vectors.
bool SameDistances(const std::array<double, sgr::kNumProperties>& a,
                   const std::array<double, sgr::kNumProperties>& b);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERED_H_
