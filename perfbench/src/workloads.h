// The benchmark's workloads, their inputs, and the two ways of running
// one: the timed run (end-to-end metrics) and the traced run (per-layer
// metrics).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/properties.h"
#include "bench.h"
#include "exp/runner.h"
#include "graph/csr_graph.h"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  /// One sentence on why the workload exists (also in BENCHMARK.json).
  std::string why;

  /// Inputs: the named synthetic stand-ins at `dataset_scale`, or, when
  /// `datasets` is empty, a generated SNAP edge list of `edge_lines`
  /// lines over `edge_list_nodes` ids.
  std::vector<std::string> datasets;
  double dataset_scale = 1.0;
  std::uint64_t edge_lines = 0;
  std::uint64_t edge_list_nodes = 0;

  sgr::ExperimentConfig config;
  /// Distinct trials per input graph. The timed loop cycles through them,
  /// so later cycles repeat earlier trials (the determinism check).
  std::size_t trials_per_graph = 1;
  /// Seeds the trial panel (see TrialSeed) and the edge-list generator.
  /// It is part of the workload, not of the run: the work a trial does
  /// depends strongly on its walk, so a per-run panel would make the
  /// timings spread with the seed rather than with the code.
  std::uint64_t panel_seed = 0;
  /// Set-ups per timed run; setup_s is their median.
  std::size_t setup_repeats = 3;
  /// Trial-pool workers (exp's ParallelFor, as RunExperiments uses). With
  /// one, trials run back to back and use the workers inside them.
  std::size_t trial_workers = 1;
  /// Input graph whose panel trial the traced run rebuilds layer by layer.
  std::size_t traced_graph = 0;
};

const std::vector<WorkloadDef>& Workloads();

/// The workload called `name`, or nullptr.
const WorkloadDef* FindWorkload(const std::string& name);

/// Seed of trial `trial` on input graph `graph` (RunExperiments' own
/// seed_base + i convention, with seed_base derived per graph).
std::uint64_t TrialSeed(const WorkloadDef& def, std::size_t graph,
                        std::size_t trial);

/// One input graph: its SNAP file and, after set-up, its snapshot and
/// original properties.
struct InputGraph {
  std::string name;
  std::string path;
  std::uint64_t expected_hash = 0;  ///< CsrContentHash the ingest must give
  std::size_t edge_lines = 0;
  sgr::CsrGraph graph;
  sgr::GraphProperties properties;
};

/// Outcome of one benchmark run.
struct RunOutcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  MetricSet metrics;
  sgr::Json details = sgr::Json::Object();

  void Fail(const std::string& what);
};

/// Writes the workload's input files under `work_dir` (not timed). The
/// run seed decides the bytes of every file but not the graph they hold:
/// stand-ins are written in canonical form with their lines shuffled and
/// endpoints swapped, and the generated edge list gets a seed-chosen
/// separator on every line.
std::vector<InputGraph> MakeInputs(const WorkloadDef& def,
                                   std::uint64_t seed,
                                   const std::string& work_dir);

/// Ingests one input file on `threads` workers and checks its content
/// hash. Returns the ingest wall time in seconds, without the check.
double IngestInput(InputGraph& input, std::size_t threads,
                   RunOutcome& outcome);

/// Timed run: set-up repeated, then whole cycles of the trial panel until
/// `seconds` of wall time have passed, and at least two. Times are CPU
/// seconds; trials_per_s divides the trials by the summed CPU time of each
/// batch's slowest trial.
RunOutcome RunTimed(const WorkloadDef& def, std::uint64_t seed, int seconds,
                    const std::string& work_dir, Provenance& provenance);

/// Traced run: one trial rebuilt layer by layer, its untraced twin, the
/// single-thread reference, and the trial-pool pass.
RunOutcome RunTraced(const WorkloadDef& def, std::uint64_t seed,
                     const std::string& work_dir, Provenance& provenance,
                     SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
