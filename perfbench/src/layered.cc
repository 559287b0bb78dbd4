#include "layered.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "analysis/l1.h"
#include "dk/dk_construct.h"
#include "estimation/estimators.h"
#include "obs/metrics.h"
#include "restore/assembler.h"
#include "restore/gjoka.h"
#include "restore/subgraph_method.h"
#include "restore/target_jdm.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"

namespace perfbench {

namespace {

using sgr::MethodKind;

bool Wants(const sgr::ExperimentConfig& config, MethodKind kind) {
  return std::find(config.methods.begin(), config.methods.end(), kind) !=
         config.methods.end();
}

/// RunExperiment's Evaluate step: properties of the restored graph and
/// their per-property distances to the original.
void Evaluate(LayeredTrial& trial, MethodKind kind,
              sgr::RestorationResult restoration,
              const sgr::GraphProperties& original_properties,
              const sgr::PropertyOptions& options, SpanLog& log) {
  sgr::MethodRunResult result;
  result.kind = kind;
  {
    SpanLog::Scope span(log, "analysis.evaluate");
    trial.generated.push_back(
        sgr::ComputeProperties(restoration.graph, options));
  }
  result.distances =
      sgr::PropertyDistances(original_properties, trial.generated.back());
  result.average_distance = sgr::AverageDistance(result.distances);
  result.sd_distance = sgr::DistanceStandardDeviation(result.distances);
  trial.evaluated_edges += restoration.graph.NumEdges();
  result.restoration = std::move(restoration);
  trial.results.push_back(std::move(result));
}

std::size_t CounterValue(const char* name) {
  const sgr::obs::MetricsSnapshot counters = sgr::obs::SnapshotCounters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : static_cast<std::size_t>(it->second);
}

}  // namespace

sgr::RewireOptions ProposedRewireOptions(const sgr::ExperimentConfig& config) {
  sgr::RewireOptions options = config.restoration.rewire;
  options.track_properties = config.restoration.track_properties;
  options.stop_epsilon = config.restoration.stop_epsilon;
  return options;
}

TrialCrawls CrawlTrial(const sgr::CsrGraph& original,
                       const sgr::ExperimentConfig& config, sgr::Rng& rng,
                       SpanLog& log) {
  if (config.crawler != sgr::CrawlerKind::kRw ||
      config.walk != sgr::WalkKind::kSimple || config.noise.Active()) {
    throw std::invalid_argument(
        "CrawlTrial mirrors only the default crawl: a simple random walk "
        "on the cooperative oracle");
  }
  TrialCrawls crawls;
  const auto budget = static_cast<std::size_t>(std::max<double>(
      1.0,
      config.query_fraction * static_cast<double>(original.NumNodes())));
  const auto seed_node =
      static_cast<sgr::NodeId>(rng.NextIndex(original.NumNodes()));

  // The subgraph-sampling baselines crawl first, each from the same seed
  // node; snowball and forest fire draw from the trial's RNG.
  for (MethodKind kind : {MethodKind::kBfs, MethodKind::kSnowball,
                          MethodKind::kForestFire}) {
    if (!Wants(config, kind)) continue;
    sgr::QueryOracle oracle(original);
    TrialCrawls::Crawl crawl;
    crawl.kind = kind;
    {
      SpanLog::Scope span(log, "sampling.crawl");
      if (kind == MethodKind::kBfs) {
        crawl.sample = sgr::BfsSample(oracle, seed_node, budget);
      } else if (kind == MethodKind::kSnowball) {
        crawl.sample = sgr::SnowballSample(oracle, seed_node, budget,
                                           config.snowball_k, rng);
      } else {
        crawl.sample = sgr::ForestFireSample(oracle, seed_node, budget,
                                             config.forest_fire_pf, rng);
      }
    }
    crawl.queries = oracle.unique_queries();
    crawls.baselines.push_back(std::move(crawl));
  }
  if (Wants(config, MethodKind::kRandomWalk) ||
      Wants(config, MethodKind::kGjoka) ||
      Wants(config, MethodKind::kProposed)) {
    sgr::QueryOracle oracle(original);
    {
      SpanLog::Scope span(log, "sampling.crawl");
      crawls.walk = sgr::RandomWalkSample(oracle, seed_node, budget, rng);
    }
    crawls.walk_queries = oracle.unique_queries();
    crawls.has_walk = true;
  }
  return crawls;
}

sgr::RestorationOptions WalkRestorationOptions(
    const sgr::ExperimentConfig& config) {
  sgr::RestorationOptions restoration = config.restoration;
  restoration.estimator.walk_type = sgr::WalkType::kSimple;
  return restoration;
}

LayeredTrial RunLayered(const sgr::CsrGraph& original,
                        const sgr::GraphProperties& original_properties,
                        const sgr::ExperimentConfig& config,
                        std::uint64_t run_seed, SpanLog& log) {
  if (config.restoration.simplify_output ||
      config.restoration.parallel_rewire.batch_size == 0 ||
      !config.restoration.parallel_assembly.enabled) {
    throw std::invalid_argument(
        "RunLayered mirrors only the batched rewiring and parallel "
        "assembly engines without output simplification");
  }
  LayeredTrial trial;
  const sgr::PropertyOptions& popts = config.property_options;
  sgr::Rng rng(run_seed);
  TrialCrawls crawls = CrawlTrial(original, config, rng, log);
  for (const TrialCrawls::Crawl& crawl : crawls.baselines) {
    trial.oracle_queries += crawl.queries;
    sgr::RestorationResult restoration;
    {
      SpanLog::Scope span(log, "restore.subgraph_method");
      restoration = sgr::RestoreBySubgraphSampling(crawl.sample);
    }
    Evaluate(trial, crawl.kind, std::move(restoration), original_properties,
             popts, log);
    trial.results.back().sample_steps =
        static_cast<double>(crawl.sample.Length());
    trial.results.back().oracle_queries = crawl.queries;
  }
  if (!crawls.has_walk) return trial;
  trial.walk = std::move(crawls.walk);
  const std::size_t queries = crawls.walk_queries;
  trial.oracle_queries += queries;
  auto stamp = [&] {
    trial.results.back().sample_steps =
        static_cast<double>(trial.walk.Length());
    trial.results.back().oracle_queries = queries;
  };

  const sgr::RestorationOptions restoration = WalkRestorationOptions(config);
  if (Wants(config, MethodKind::kRandomWalk)) {
    sgr::RestorationResult result;
    {
      SpanLog::Scope span(log, "restore.subgraph_method");
      result = sgr::RestoreBySubgraphSampling(trial.walk);
    }
    Evaluate(trial, MethodKind::kRandomWalk, std::move(result),
             original_properties, popts, log);
    stamp();
  }
  if (Wants(config, MethodKind::kGjoka)) {
    sgr::RestorationResult result;
    {
      SpanLog::Scope span(log, "restore.gjoka");
      result = sgr::RestoreGjoka(trial.walk, restoration, rng);
    }
    Evaluate(trial, MethodKind::kGjoka, std::move(result),
             original_properties, popts, log);
    stamp();
  }
  if (!Wants(config, MethodKind::kProposed)) return trial;

  // RestoreProposed, one layer call at a time.
  sgr::RestorationResult result;
  {
    SpanLog::Scope span(log, "sampling.subgraph");
    trial.sub = sgr::BuildSubgraph(trial.walk);
  }
  {
    SpanLog::Scope span(log, "estimation.estimate");
    trial.estimates =
        sgr::EstimateLocalProperties(trial.walk, restoration.estimator);
  }
  {
    SpanLog::Scope span(log, "restore.targets");
    trial.targets = sgr::BuildTargetDegreeVector(trial.sub, trial.estimates,
                                                 rng);
    const sgr::JointDegreeMatrix m_prime = sgr::SubgraphClassEdges(
        trial.sub.graph, trial.targets.subgraph_target_degrees);
    trial.m_star = sgr::BuildTargetJdm(trial.estimates, trial.targets.n_star,
                                       m_prime, rng);
  }
  trial.assemble_seed = rng.engine()();
  const std::size_t pairs_before = CounterValue("assemble.pairs");
  {
    SpanLog::Scope span(log, "dk.assemble");
    result.graph = sgr::AssembleFromSubgraphParallel(
        trial.sub, trial.targets, trial.targets.n_star, trial.m_star,
        trial.assemble_seed, restoration.parallel_assembly.threads);
  }
  trial.assemble_pairs = CounterValue("assemble.pairs") - pairs_before;
  trial.assembled_edges = result.graph.NumEdges();

  trial.protected_edges =
      restoration.protect_subgraph ? trial.sub.graph.NumEdges() : 0;
  trial.rewire_seed = rng.engine()();
  const double rss_before = PeakRssMb();
  {
    SpanLog::Scope span(log, "restore.rewire");
    result.rewire_stats = sgr::RewireToClusteringParallel(
        result.graph, trial.protected_edges, trial.estimates.clustering,
        ProposedRewireOptions(config), restoration.parallel_rewire,
        trial.rewire_seed);
  }
  trial.rewire_rss_delta_mb = PeakRssMb() - rss_before;
  Evaluate(trial, MethodKind::kProposed, std::move(result),
           original_properties, popts, log);
  stamp();
  return trial;
}

bool KeepsProtectedEdges(const sgr::Graph& restored, const sgr::Graph& sub) {
  if (restored.NumEdges() < sub.NumEdges()) return false;
  for (sgr::EdgeId e = 0; e < sub.NumEdges(); ++e) {
    const sgr::Edge& a = restored.edge(e);
    const sgr::Edge& b = sub.edge(e);
    if (a.u != b.u || a.v != b.v) return false;
  }
  return true;
}

bool SameGraph(const sgr::Graph& a, const sgr::Graph& b) {
  if (a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (sgr::EdgeId e = 0; e < a.NumEdges(); ++e) {
    if (a.edge(e).u != b.edge(e).u || a.edge(e).v != b.edge(e).v) {
      return false;
    }
  }
  for (sgr::NodeId v = 0; v < a.NumNodes(); ++v) {
    if (a.adjacency(v) != b.adjacency(v)) return false;
  }
  return true;
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

bool SameRewireStats(const sgr::RewireStats& a, const sgr::RewireStats& b) {
  if (a.curve.size() != b.curve.size()) return false;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    const sgr::ConvergenceSample& x = a.curve[i];
    const sgr::ConvergenceSample& y = b.curve[i];
    if (x.attempts != y.attempts || !SameBits(x.objective, y.objective) ||
        !SameBits(x.clustering_global, y.clustering_global) ||
        x.components != y.components || x.lcc != y.lcc) {
      return false;
    }
  }
  return a.attempts == b.attempts && a.accepted == b.accepted &&
         SameBits(a.initial_distance, b.initial_distance) &&
         SameBits(a.final_distance, b.final_distance) &&
         a.rounds == b.rounds && a.evaluated == b.evaluated &&
         a.conflicts == b.conflicts && a.reevaluated == b.reevaluated &&
         a.stopped_early == b.stopped_early;
}

bool SameProperties(const sgr::GraphProperties& a,
                    const sgr::GraphProperties& b) {
  return a.num_nodes == b.num_nodes &&
         SameBits(a.average_degree, b.average_degree) &&
         SameBits(a.degree_dist, b.degree_dist) &&
         SameBits(a.neighbor_connectivity, b.neighbor_connectivity) &&
         SameBits(a.clustering_global, b.clustering_global) &&
         SameBits(a.clustering_by_degree, b.clustering_by_degree) &&
         SameBits(a.esp_dist, b.esp_dist) &&
         SameBits(a.average_path_length, b.average_path_length) &&
         SameBits(a.path_length_dist, b.path_length_dist) &&
         a.diameter == b.diameter &&
         SameBits(a.betweenness_by_degree, b.betweenness_by_degree) &&
         SameBits(a.largest_eigenvalue, b.largest_eigenvalue);
}

bool SameDistances(const std::array<double, sgr::kNumProperties>& a,
                   const std::array<double, sgr::kNumProperties>& b) {
  return std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

}  // namespace perfbench
