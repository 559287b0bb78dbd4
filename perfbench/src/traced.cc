// The traced run: per-layer metrics of one trial per workload.
#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "analysis/properties.h"
#include "dk/dk_extract.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "restore/assembler.h"
#include "layered.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Runs each analyzer ComputeProperties runs, one at a time and each in
/// its own span, on a snapshot of `g`, and checks the outputs against
/// `expected`, the ComputeProperties result of the same graph.
bool TimeAnalyzers(const sgr::Graph& g, const sgr::GraphProperties& expected,
                   const sgr::PropertyOptions& options, SpanLog& log) {
  const sgr::CsrGraph csr(g);
  sgr::GraphProperties p = expected;
  {
    SpanLog::Scope span(log, "analysis.degree");
    p.degree_dist = sgr::DegreeDistribution(csr);
    p.neighbor_connectivity = sgr::NeighborConnectivity(csr);
  }
  {
    SpanLog::Scope span(log, "analysis.clustering");
    const std::vector<std::int64_t> t = sgr::CountTrianglesPerNode(csr);
    p.clustering_by_degree = sgr::ExtractDegreeDependentClustering(csr, t);
  }
  {
    SpanLog::Scope span(log, "analysis.esp");
    p.esp_dist = sgr::EdgewiseSharedPartners(csr);
  }
  {
    SpanLog::Scope span(log, "analysis.paths");
    const sgr::ShortestPathProperties sp =
        sgr::ComputeShortestPathProperties(csr, options);
    p.average_path_length = sp.average_length;
    p.path_length_dist = sp.length_dist;
    p.diameter = sp.diameter;
    p.betweenness_by_degree = sp.betweenness_by_degree;
  }
  {
    SpanLog::Scope span(log, "analysis.eigen");
    p.largest_eigenvalue = sgr::LargestEigenvalue(
        csr, options.power_iterations, options.power_tolerance);
  }
  return SameProperties(p, expected);
}

bool SameResults(const std::vector<sgr::MethodRunResult>& a,
                 const std::vector<sgr::MethodRunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind ||
        !SameDistances(a[i].distances, b[i].distances)) {
      return false;
    }
  }
  return true;
}

/// Trial-pool balance of one pass over every input graph, from the
/// library's own "trial" spans: busy fraction of the pool and the mean
/// slowest/mean trial ratio per cell.
std::pair<double, double> PoolBalance(const WorkloadDef& def,
                                      std::vector<InputGraph>& inputs,
                                      std::size_t traced_trial,
                                      const std::vector<sgr::MethodRunResult>&
                                          traced_results,
                                      RunOutcome& outcome) {
  double busy = 0.0;
  double wall = 0.0;
  double imbalance = 0.0;
  for (std::size_t g = 0; g < inputs.size(); ++g) {
    sgr::obs::StartTracing();
    const Clock::time_point start = Clock::now();
    const std::vector<std::vector<sgr::MethodRunResult>> cell =
        sgr::RunExperiments(inputs[g].graph, inputs[g].properties, def.config,
                            TrialSeed(def, g, 0), def.trials_per_graph,
                            def.trial_workers);
    wall += SecondsSince(start);
    sgr::obs::StopTracing();
    outcome.attempted += cell.size();
    if (g == def.traced_graph &&
        !SameResults(cell[traced_trial], traced_results)) {
      outcome.Fail("trial pool result differs from the traced trial");
    }
    Series trials;
    for (const sgr::obs::TraceEvent& e : sgr::obs::CollectTraceEvents()) {
      if (e.name == "trial") trials.Add(static_cast<double>(e.dur_us) * 1e-6);
    }
    if (trials.size() != cell.size()) {
      outcome.Fail("expected one trial span per trial");
      continue;
    }
    busy += trials.Mean() * static_cast<double>(trials.size());
    imbalance += trials.Max() / trials.Mean();
  }
  return {busy / (static_cast<double>(def.trial_workers) * wall),
          imbalance / static_cast<double>(inputs.size())};
}

}  // namespace

RunOutcome RunTraced(const WorkloadDef& def, std::uint64_t seed,
                     const std::string& work_dir, Provenance& provenance,
                     SpanLog& log) {
  RunOutcome outcome;
  MetricSet& m = outcome.metrics;
  sgr::obs::EnableMetrics(true);
  std::vector<InputGraph> inputs = MakeInputs(def, seed, work_dir);

  // graph: one ingest of every input, first thing in this process.
  double lines = 0.0;
  double neighbor_bytes = 0.0;
  for (InputGraph& input : inputs) {
    {
      SpanLog::Scope span(log, "graph.ingest");
      IngestInput(input, WorkerCount(), outcome);
    }
    lines += static_cast<double>(input.edge_lines);
    neighbor_bytes += static_cast<double>(input.graph.NeighborStorageBytes());
  }
  const double ingest_s = log.CpuTotal("graph.ingest");
  m.Set("graph.ingest_s", ingest_s, "s");
  m.Set("graph.ingest_ns_per_edge", ingest_s * 1e9 / lines, "ns");
  m.Set("graph.csr_neighbor_bytes", neighbor_bytes, "bytes");
  m.Set("graph.ingest_rss_mb", PeakRssMb(), "MB", 1,
        "process peak RSS after ingest");
  for (InputGraph& input : inputs) {
    SpanLog::Scope span(log, "analysis.original_properties");
    input.properties =
        sgr::ComputeProperties(input.graph, def.config.property_options);
  }

  // The traced trial, a seed-chosen member of the timed run's panel,
  // before any other trial of this process.
  const InputGraph& input = inputs[def.traced_graph];
  const std::size_t traced_trial = seed % def.trials_per_graph;
  const std::uint64_t trial_seed =
      TrialSeed(def, def.traced_graph, traced_trial);
  LayeredTrial traced;
  {
    SpanLog::Scope span(log, "trial");
    traced = RunLayered(input.graph, input.properties, def.config,
                        trial_seed, log);
  }
  const double traced_cpu = log.CpuTotal("trial");
  ++outcome.attempted;

  // Its untraced twin must produce the same L1 vector bit for bit;
  // otherwise the per-layer numbers describe some other computation.
  const double untraced_start = CpuSeconds(CpuClock::kProcess);
  const std::vector<sgr::MethodRunResult> untraced = sgr::RunExperiment(
      input.graph, input.properties, def.config, trial_seed);
  const double untraced_cpu = CpuSeconds(CpuClock::kProcess) - untraced_start;
  ++outcome.attempted;
  if (!SameResults(untraced, traced.results)) {
    outcome.Fail("traced trial L1 differs from the untraced trial");
    outcome.failed = outcome.attempted;
    return outcome;
  }
  const sgr::MethodRunResult& proposed = traced.results.back();
  const sgr::Graph& rewired = proposed.restoration.graph;
  const sgr::RewireStats& stats = proposed.restoration.rewire_stats;
  if (!KeepsProtectedEdges(rewired, traced.sub.graph)) {
    outcome.Fail("protected subgraph edges lost");
  }

  // Single-thread reference: repeat assembly and rewiring on one worker
  // from the same inputs. The engines promise byte-identical output.
  sgr::ParallelRewireOptions one_worker =
      def.config.restoration.parallel_rewire;
  one_worker.threads = 1;
  sgr::Graph reference;
  {
    SpanLog::Scope span(log, "reference.assemble_1t");
    reference = sgr::AssembleFromSubgraphParallel(
        traced.sub, traced.targets, traced.targets.n_star, traced.m_star,
        traced.assemble_seed, 1);
  }
  const sgr::DegreeVector degrees_before = sgr::ExtractDegreeVector(reference);
  const sgr::JointDegreeMatrix jdm_before =
      sgr::ExtractJointDegreeMatrix(reference);
  sgr::RewireStats reference_stats;
  {
    SpanLog::Scope span(log, "reference.rewire_1t");
    reference_stats = sgr::RewireToClusteringParallel(
        reference, traced.protected_edges, traced.estimates.clustering,
        ProposedRewireOptions(def.config), one_worker, traced.rewire_seed);
  }
  if (!SameGraph(reference, rewired) ||
      !SameRewireStats(reference_stats, stats)) {
    outcome.Fail("1-worker assembly+rewire differs from the multi-worker run");
  }
  if (sgr::ExtractDegreeVector(rewired) != degrees_before ||
      sgr::ExtractJointDegreeMatrix(rewired).counts() != jdm_before.counts()) {
    outcome.Fail("rewiring changed the degree vector or joint degree matrix");
  }
  reference = sgr::Graph();

  // analysis: every analyzer of every evaluated graph, one at a time.
  for (std::size_t i = 0; i < traced.results.size(); ++i) {
    if (!TimeAnalyzers(traced.results[i].restoration.graph,
                       traced.generated[i], def.config.property_options,
                       log)) {
      outcome.Fail("an analyzer disagrees with ComputeProperties");
    }
  }

  // exp: trial-pool balance (only a workload with several trial workers
  // uses the pool; with one worker the pool is busy by construction).
  double busy = 1.0;
  double imbalance = 1.0;
  if (def.trial_workers > 1) {
    std::tie(busy, imbalance) =
        PoolBalance(def, inputs, traced_trial, traced.results, outcome);
  }

  // Times are CPU seconds (see CpuSeconds), except the speedup, which is
  // the wall-time ratio of the same call on 1 and on all workers.
  m.Set("sampling.crawl_s", log.CpuTotal("sampling.crawl"), "s");
  m.Set("sampling.walk_steps", static_cast<double>(traced.walk.Length()),
        "count");
  m.Set("sampling.oracle_queries", static_cast<double>(traced.oracle_queries),
        "count");
  m.Set("sampling.subgraph_s", log.CpuTotal("sampling.subgraph"), "s");
  m.Set("estimation.estimate_s", log.CpuTotal("estimation.estimate"), "s");
  m.Set("restore.targets_s", log.CpuTotal("restore.targets"), "s");
  const double assemble_s = log.CpuTotal("dk.assemble");
  m.Set("dk.assemble_s", assemble_s, "s");
  m.Set("dk.assemble_pairs", static_cast<double>(traced.assemble_pairs),
        "count");
  const std::size_t pairs = std::max<std::size_t>(1, traced.assemble_pairs);
  m.Set("dk.ns_per_pair", assemble_s * 1e9 / static_cast<double>(pairs),
        "ns");
  m.Set("dk.assembled_edges", static_cast<double>(traced.assembled_edges),
        "count");
  const double rewire_s = log.CpuTotal("restore.rewire");
  const double attempts = static_cast<double>(stats.attempts);
  m.Set("restore.rewire_s", rewire_s, "s");
  m.Set("restore.rewire_attempts", attempts, "count");
  m.Set("restore.rewire_accepted", static_cast<double>(stats.accepted),
        "count");
  m.Set("restore.rewire_accept_ratio",
        attempts > 0 ? static_cast<double>(stats.accepted) / attempts : 0.0,
        "ratio");
  m.Set("restore.rewire_ns_per_attempt",
        attempts > 0 ? rewire_s * 1e9 / attempts : 0.0, "ns");
  m.Set("restore.rewire_rounds", static_cast<double>(stats.rounds), "count");
  m.Set("restore.rewire_conflicts", static_cast<double>(stats.conflicts),
        "count");
  m.Set("restore.rewire_reevaluated", static_cast<double>(stats.reevaluated),
        "count");
  m.Set("restore.rewire_rss_delta_mb", traced.rewire_rss_delta_mb, "MB", 1,
        "rise of the process peak RSS across the rewire call");
  m.Set("restore.rewire_speedup_4t",
        log.Total("reference.rewire_1t") / log.Total("restore.rewire"), "x",
        1,
        "1-worker over " +
            std::to_string(def.config.restoration.parallel_rewire.threads) +
            "-worker rewire time");
  const double evaluate_s = log.CpuTotal("analysis.evaluate");
  m.Set("analysis.evaluate_s", evaluate_s, "s");
  m.Set("analysis.ns_per_edge",
        evaluate_s * 1e9 / static_cast<double>(traced.evaluated_edges), "ns");
  for (const char* analyzer :
       {"degree", "clustering", "esp", "paths", "eigen"}) {
    m.Set(std::string("analysis.") + analyzer + "_s",
          log.CpuTotal(std::string("analysis.") + analyzer), "s");
  }
  m.Set("exp.pool_busy_frac", busy, "ratio");
  m.Set("exp.cell_imbalance", imbalance, "ratio");
  double layer_cpu = 0.0;
  for (const SpanLog::Record& r : log.records()) {
    if (r.parent == "trial") layer_cpu += r.cpu_s;
  }
  m.Set("trace.unattributed_frac", (traced_cpu - layer_cpu) / traced_cpu,
        "ratio", 1, "share of the traced trial outside every layer call");
  m.Set("trace.overhead_frac", (traced_cpu - untraced_cpu) / untraced_cpu,
        "ratio", 1,
        "traced over untraced CPU time of the same trial, minus 1");

  outcome.details.Set("traced_trial_cpu_s", sgr::Json::Number(traced_cpu));
  outcome.details.Set("untraced_trial_cpu_s", sgr::Json::Number(untraced_cpu));
  outcome.details.Set("proposed_l1",
                      sgr::Json::Number(proposed.average_distance));
  provenance.extra.Set("traced_graph", sgr::Json::String(input.name));
  provenance.extra.Set("traced_trial_seed",
                       sgr::Json::String(std::to_string(trial_seed)));
  return outcome;
}

}  // namespace perfbench
