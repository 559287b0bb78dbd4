#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exp/datasets.h"
#include "exp/parallel.h"
#include "graph/components.h"
#include "graph/edge_list_reader.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "layered.h"
#include "restore/gjoka.h"
#include "restore/proposed.h"
#include "sampling/subgraph.h"
#include "util/rng.h"

namespace perfbench {

namespace {

sgr::ExperimentConfig BaseConfig(double fraction, double rc,
                                 std::size_t inner_workers,
                                 std::size_t path_sources) {
  sgr::ExperimentConfig config;
  config.query_fraction = fraction;
  config.restoration.rewire.rewiring_coefficient = rc;
  config.restoration.parallel_rewire.batch_size = 256;
  config.restoration.parallel_rewire.threads = inner_workers;
  config.restoration.parallel_assembly.enabled = true;
  config.restoration.parallel_assembly.threads = inner_workers;
  config.restoration.estimator.threads = inner_workers;
  config.property_options.max_path_sources = path_sources;
  // Property evaluation stays on one thread: its floating-point summation
  // order, and so every L1 distance, is then fixed at any worker count.
  config.property_options.threads = 1;
  return config;
}

std::vector<WorkloadDef> BuildWorkloads() {
  const std::size_t workers = WorkerCount();
  std::vector<WorkloadDef> defs;
  {
    WorkloadDef w;
    w.name = "restore-50k";
    w.why =
        "The paper's Proposed pipeline at a size where restore does most of "
        "the work (rewire, targets) and the ~50 MB working set fits in the "
        "LLC.";
    w.datasets = {"brightkite"};
    w.dataset_scale = 10.0;  // n 50,000, m 181,125 after preprocessing
    w.config = BaseConfig(0.05, 20.0, workers, 40);
    w.config.methods = {sgr::MethodKind::kProposed};
    w.trials_per_graph = 3;
    w.panel_seed = 0x50C1A150;
    w.setup_repeats = 7;
    defs.push_back(std::move(w));
  }
  {
    WorkloadDef w;
    w.name = "table3-matrix";
    w.why =
        "The Table III comparison: six stand-ins, all six methods; analysis "
        "dominates, and it alone exercises exp's trial pool and its per-cell "
        "balance.";
    for (const sgr::DatasetSpec& spec : sgr::StandardDatasets()) {
      w.datasets.push_back(spec.name);
    }
    w.dataset_scale = 0.5;
    w.config = BaseConfig(0.10, 5.0, 1, 200);
    w.trials_per_graph = 4;
    w.trial_workers = workers;
    w.traced_graph = w.datasets.size() - 1;  // livemocha, the largest
    w.panel_seed = 0x7AB1E3;
    w.setup_repeats = 7;
    defs.push_back(std::move(w));
  }
  {
    WorkloadDef w;
    w.name = "ingest-2m";
    w.why =
        "A raw 2M-line SNAP list through graph's ingester, and a restored "
        "graph plus triangle tracker that exceed the LLC: the memory-bound "
        "mirror of restore-50k.";
    w.edge_lines = 2000000;
    w.edge_list_nodes = 250000;
    w.config = BaseConfig(0.01, 0.5, workers, 8);
    w.config.methods = {sgr::MethodKind::kProposed};
    w.trials_per_graph = 1;
    w.panel_seed = 0x2000000;
    w.setup_repeats = 3;
    defs.push_back(std::move(w));
  }
  return defs;
}

/// SplitMix64 finalizer: the edge-list generator's only randomness, so
/// the file is a pure function of (lines, nodes, seed) on every platform.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Writes a SNAP-style edge list: a random spanning tree (so the graph is
/// connected), then random chords, with every 4096th chord a self-loop
/// and every 4096th (offset) a repeat of the previous chord. The graph
/// depends on `graph_seed` only; `format_seed` picks each line's
/// separator (space or tab), which the ingester treats alike.
void WriteSyntheticEdgeList(const std::string& path, std::uint64_t nodes,
                            std::uint64_t lines, std::uint64_t graph_seed,
                            std::uint64_t format_seed) {
  if (nodes < 2 || lines < nodes - 1) {
    throw std::invalid_argument("edge list needs lines >= nodes - 1 >= 1");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::string buffer;
  buffer.reserve(std::size_t{1} << 22);
  char line[48];
  std::uint64_t prev_u = 0;
  std::uint64_t prev_v = 1;
  for (std::uint64_t i = 0; i < lines; ++i) {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (i + 1 < nodes) {
      u = i + 1;
      v = Mix(graph_seed ^ (i << 1)) % (i + 1);
    } else if ((i & 0xFFF) == 0x123) {
      u = v = Mix(graph_seed + i) % nodes;
    } else if ((i & 0xFFF) == 0x456) {
      u = prev_u;
      v = prev_v;
    } else {
      u = Mix(graph_seed + 3 * i) % nodes;
      v = Mix(graph_seed ^ (i * 0xD6E8FEB86659FD93ULL)) % nodes;
      if (u == v) v = (v + 1) % nodes;
      prev_u = u;
      prev_v = v;
    }
    const char separator = (Mix(format_seed + i) & 1) ? '\t' : ' ';
    const int len = std::snprintf(line, sizeof line, "%" PRIu64 "%c%" PRIu64
                                  "\n", u, separator, v);
    buffer.append(line, static_cast<std::size_t>(len));
    if (buffer.size() >= (std::size_t{1} << 22)) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.close();
  if (!out) throw std::runtime_error("failed writing " + path);
}

/// Writes `snapshot` in canonical form (ids kept verbatim on ingest) with
/// its edge lines in a seed-dependent order and orientation, so the file
/// bytes vary with the seed while the ingested snapshot does not.
void WriteShuffledCanonical(const sgr::CsrGraph& snapshot,
                            const std::string& path, std::uint64_t seed) {
  std::ostringstream text;
  sgr::WriteCanonicalEdgeList(snapshot, text);
  std::istringstream in(text.str());
  std::string header;
  std::vector<std::string> edges;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] == '#') {
      header += line + "\n";
    } else {
      edges.push_back(std::move(line));
    }
  }
  std::uint64_t state = seed;
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[Mix(state++) % i]);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << header;
  for (const std::string& edge : edges) {
    const std::size_t space = edge.find(' ');
    if (Mix(state++) & 1) {
      out << edge.substr(space + 1) << ' ' << edge.substr(0, space) << '\n';
    } else {
      out << edge << '\n';
    }
  }
  out.close();
  if (!out) throw std::runtime_error("failed writing " + path);
}

/// The generative restorations of one trial, timed as whole library
/// calls: the trial's crawls are replayed untimed with RunExperiment's RNG
/// draws, so RestoreGjoka and RestoreProposed get the trial's own walk and
/// RNG state.
struct Restorations {
  std::vector<double> cpu_s;  ///< one per RestoreGjoka/RestoreProposed call
  std::string problem;        ///< empty when the output checks pass
};

Restorations RunRestorations(const InputGraph& input,
                             const sgr::ExperimentConfig& config,
                             std::uint64_t trial_seed, CpuClock clock) {
  SpanLog log(clock);
  sgr::Rng rng(trial_seed);
  const TrialCrawls crawls = CrawlTrial(input.graph, config, rng, log);
  const sgr::RestorationOptions options = WalkRestorationOptions(config);
  const auto wants = [&](sgr::MethodKind kind) {
    return std::find(config.methods.begin(), config.methods.end(), kind) !=
           config.methods.end();
  };
  Restorations out;
  if (wants(sgr::MethodKind::kGjoka)) {
    SpanLog::Scope span(log, "restore.gjoka");
    sgr::RestoreGjoka(crawls.walk, options, rng);
  }
  if (wants(sgr::MethodKind::kProposed)) {
    sgr::RestorationResult proposed;
    {
      SpanLog::Scope span(log, "restore.proposed");
      proposed = sgr::RestoreProposed(crawls.walk, options, rng);
    }
    if (!KeepsProtectedEdges(proposed.graph,
                             sgr::BuildSubgraph(crawls.walk).graph)) {
      out.problem = "protected subgraph edges lost";
    }
  }
  for (const SpanLog::Record& r : log.records()) {
    if (r.name == "restore.gjoka" || r.name == "restore.proposed") {
      out.cpu_s.push_back(r.cpu_s);
    }
  }
  return out;
}

/// Output checks of the timed run on RunExperiment's results.
class TrialChecker {
 public:
  /// Returns what is wrong with one trial, or an empty string. Records
  /// the trial's L1 vectors the first time it runs and compares them bit
  /// for bit on every repetition.
  std::string Check(std::size_t graph, std::size_t trial,
                    const std::vector<sgr::MethodRunResult>& results) {
    std::vector<std::array<double, sgr::kNumProperties>> distances;
    for (const sgr::MethodRunResult& r : results) {
      distances.push_back(r.distances);
      for (double d : r.distances) {
        if (!std::isfinite(d)) return "non-finite distance";
      }
    }
    const auto [it, first] =
        first_.emplace(std::make_pair(graph, trial), distances);
    if (first) {
      for (const sgr::MethodRunResult& r : results) {
        if (r.kind == sgr::MethodKind::kProposed) {
          proposed_l1.push_back(r.average_distance);
        }
      }
      return "";
    }
    bool same = it->second.size() == distances.size();
    for (std::size_t m = 0; same && m < distances.size(); ++m) {
      same = SameDistances(it->second[m], distances[m]);
    }
    return same ? "" : "L1 vector differs on repetition";
  }

  std::vector<double> proposed_l1;  ///< one per distinct trial

 private:
  std::map<std::pair<std::size_t, std::size_t>,
           std::vector<std::array<double, sgr::kNumProperties>>>
      first_;
};

/// Runs `fn(i)` for i in [0, count) on `workers` trial workers, and turns
/// an exception of fn(i) into problems[i].
void ParallelTrials(std::size_t count, std::size_t workers,
                    std::vector<std::string>& problems,
                    const std::function<void(std::size_t)>& fn) {
  sgr::ParallelFor(count, workers, [&](std::size_t i) {
    try {
      fn(i);
    } catch (const std::exception& e) {
      problems[i] = std::string("threw: ") + e.what();
    } catch (...) {
      problems[i] = "threw an unknown exception";
    }
  });
}

/// Computed (not measured) bytes of the restored graph's mutable
/// structures, for comparison with the LLC.
sgr::Json WorkingSetEstimate(std::size_t nodes, std::size_t edges) {
  const double n = static_cast<double>(nodes);
  const double m = static_cast<double>(edges);
  // Graph: one vector header per node, 2m adjacency ids, m edge records.
  const double graph_bytes = n * 24.0 + 2.0 * m * 4.0 + m * 8.0;
  // CsrGraph snapshot: n + 1 offsets and 2m neighbor ids.
  const double csr_bytes = (n + 1.0) * 8.0 + 2.0 * m * 4.0;
  // TriangleTracker: one unordered_map per node (56 B header) with up to
  // 2m entries (32 B node + 8 B bucket), plus t_ and degree_ arrays.
  const double tracker_bytes = n * (56.0 + 8.0 + 4.0) + 2.0 * m * 40.0;
  const double llc = static_cast<double>(LlcBytes());
  sgr::Json j = sgr::Json::Object();
  j.Set("restored_nodes", sgr::Json::Number(n));
  j.Set("restored_edges", sgr::Json::Number(m));
  j.Set("graph_bytes_computed", sgr::Json::Number(graph_bytes));
  j.Set("csr_bytes_computed", sgr::Json::Number(csr_bytes));
  j.Set("triangle_tracker_bytes_computed", sgr::Json::Number(tracker_bytes));
  j.Set("working_set_over_llc",
        sgr::Json::Number(llc > 0 ? (graph_bytes + tracker_bytes) / llc : 0));
  return j;
}

}  // namespace

void RunOutcome::Fail(const std::string& what) {
  ++failed;
  failures.push_back(what);
}

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = BuildWorkloads();
  return defs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::uint64_t TrialSeed(const WorkloadDef& def, std::size_t graph,
                        std::size_t trial) {
  return sgr::DeriveSeed(def.panel_seed, graph) + trial;
}

std::vector<InputGraph> MakeInputs(const WorkloadDef& def,
                                   std::uint64_t seed,
                                   const std::string& work_dir) {
  std::vector<InputGraph> inputs;
  if (def.datasets.empty()) {
    InputGraph input;
    input.name = "synthetic-" + std::to_string(def.edge_lines);
    input.path = work_dir + "/" + def.name + ".txt";
    WriteSyntheticEdgeList(input.path, def.edge_list_nodes, def.edge_lines,
                           def.panel_seed, seed);
    // The reference content is the single-threaded ingest; set-up ingests
    // on the workload's workers and must reproduce it.
    sgr::IngestOptions options;
    options.threads = 1;
    input.expected_hash = sgr::CsrContentHash(
        sgr::IngestEdgeListFile(input.path, options).graph);
    inputs.push_back(std::move(input));
    return inputs;
  }
  for (const std::string& name : def.datasets) {
    // The stand-in exactly as LoadDatasetCsr generates it, exported in
    // canonical form so that re-ingesting it must give the same snapshot.
    const sgr::DatasetSpec spec = sgr::DatasetByName(name);
    sgr::Rng rng(spec.seed);
    const auto nodes = static_cast<std::size_t>(
        static_cast<double>(spec.num_nodes) * def.dataset_scale);
    const sgr::CsrGraph snapshot(sgr::PreprocessDataset(
        sgr::GenerateSocialGraph(nodes, spec.edges_per_node,
                                 spec.triad_probability,
                                 spec.fringe_fraction, rng)));
    InputGraph input;
    input.name = name;
    input.path = work_dir + "/" + def.name + "-" + name + ".txt";
    input.expected_hash = sgr::CsrContentHash(snapshot);
    WriteShuffledCanonical(snapshot, input.path, sgr::DeriveSeed(seed, 1));
    inputs.push_back(std::move(input));
  }
  return inputs;
}

double IngestInput(InputGraph& input, std::size_t threads,
                   RunOutcome& outcome) {
  sgr::IngestOptions options;
  options.threads = threads;
  const Clock::time_point start = Clock::now();
  sgr::IngestResult ingested = sgr::IngestEdgeListFile(input.path, options);
  const double seconds = SecondsSince(start);
  input.edge_lines = ingested.stats.edge_lines;
  input.graph = std::move(ingested.graph);
  if (sgr::CsrContentHash(input.graph) != input.expected_hash) {
    outcome.Fail(input.name + ": ingest at " + std::to_string(threads) +
                 " threads changed the CSR content hash");
  }
  return seconds;
}

RunOutcome RunTimed(const WorkloadDef& def, std::uint64_t seed, int seconds,
                    const std::string& work_dir, Provenance& provenance) {
  RunOutcome outcome;
  std::vector<InputGraph> inputs = MakeInputs(def, seed, work_dir);

  // Set-up: ingest every input and compute the original properties,
  // repeated so that setup_s is a median. The checks stay untimed.
  Series setup_s;
  Series ingest_rate;
  std::vector<sgr::GraphProperties> first_properties;
  for (std::size_t rep = 0; rep < def.setup_repeats; ++rep) {
    double ingest_cpu = 0.0;
    double setup_cpu = 0.0;
    double lines = 0.0;
    for (InputGraph& input : inputs) {
      double cpu = CpuSeconds(CpuClock::kProcess);
      IngestInput(input, WorkerCount(), outcome);
      const double ingest = CpuSeconds(CpuClock::kProcess) - cpu;
      ingest_cpu += ingest;
      lines += static_cast<double>(input.edge_lines);
      cpu = CpuSeconds(CpuClock::kProcess);
      input.properties =
          sgr::ComputeProperties(input.graph, def.config.property_options);
      setup_cpu += ingest + CpuSeconds(CpuClock::kProcess) - cpu;
    }
    setup_s.Add(setup_cpu);
    ingest_rate.Add(lines / ingest_cpu);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (rep == 0) {
        first_properties.push_back(inputs[i].properties);
      } else if (!SameProperties(first_properties[i], inputs[i].properties)) {
        outcome.Fail(inputs[i].name + ": original properties differ "
                     "between set-ups");
      }
    }
  }
  const std::size_t setup_failures = outcome.failed;

  // Trials, closed loop, in whole cycles over the panel until `seconds` of
  // wall time have passed, and never fewer than two cycles, so that every
  // trial is repeated once (the determinism check) and every median has
  // two samples or more. Whole cycles keep the mix of cheap and costly
  // trials behind each median the same in every run. One input graph at a
  // time; its trials run back to back (one trial worker, each trial using
  // the workers inside) or together on exp's trial pool (one worker each),
  // as RunExperiments runs them. A batch first runs its trials through
  // RunExperiment, then their generative restorations as single calls.
  TrialChecker checker;
  Series trial_cpu;
  Series restore_cpu;
  Series batch_wall;
  double makespan_cpu = 0.0;
  std::size_t restored_nodes = 0;
  std::size_t restored_edges = 0;
  std::size_t done = 0;
  const std::size_t cycle = inputs.size() * def.trials_per_graph;
  const CpuClock clock =
      def.trial_workers == 1 ? CpuClock::kProcess : CpuClock::kThread;
  const Clock::time_point loop_start = Clock::now();
  while (done < 2 * cycle || done % cycle != 0 ||
         SecondsSince(loop_start) < seconds) {
    const std::size_t g = (done / def.trials_per_graph) % inputs.size();
    const std::size_t first = done % def.trials_per_graph;
    const std::size_t count =
        std::min(def.trial_workers, def.trials_per_graph - first);
    const InputGraph& input = inputs[g];
    std::vector<std::string> problems(count);

    std::vector<std::vector<sgr::MethodRunResult>> results(count);
    std::vector<double> cpu(count, 0.0);
    const Clock::time_point batch_start = Clock::now();
    ParallelTrials(count, def.trial_workers, problems, [&](std::size_t i) {
      const double start = CpuSeconds(clock);
      results[i] = sgr::RunExperiment(input.graph, input.properties,
                                      def.config, TrialSeed(def, g, first + i));
      cpu[i] = CpuSeconds(clock) - start;
    });
    batch_wall.Add(SecondsSince(batch_start));
    // The batch is done when its slowest trial is: the CPU time of that
    // trial is the batch's length in CPU terms, free of the host's steal.
    makespan_cpu += *std::max_element(cpu.begin(), cpu.end());
    for (std::size_t i = 0; i < count; ++i) {
      if (!problems[i].empty()) continue;
      trial_cpu.Add(cpu[i]);
      problems[i] = checker.Check(g, first + i, results[i]);
      const sgr::Graph& restored = results[i].back().restoration.graph;
      restored_nodes = restored.NumNodes();
      restored_edges = restored.NumEdges();
    }
    results.clear();  // free the trials before the restorations run

    std::vector<Restorations> restorations(count);
    ParallelTrials(count, def.trial_workers, problems, [&](std::size_t i) {
      restorations[i] = RunRestorations(input, def.config,
                                        TrialSeed(def, g, first + i), clock);
    });
    for (std::size_t i = 0; i < count; ++i) {
      for (double r : restorations[i].cpu_s) restore_cpu.Add(r);
      if (problems[i].empty()) problems[i] = restorations[i].problem;
      ++outcome.attempted;
      if (!problems[i].empty()) {
        outcome.Fail(input.name + " trial " + std::to_string(first + i) +
                     ": " + problems[i]);
      }
    }
    done += count;
    // Hand freed heap back to the OS between batches. Otherwise the
    // per-thread arenas of the trial pool fragment over the passes, and
    // peak_rss_mb measured allocator history (50-84 MB over runs of
    // table3-matrix) instead of the trials' concurrent working set.
    malloc_trim(0);
  }
  // A set-up failure (a changed ingest hash or original properties)
  // invalidates every trial that ran on that set-up.
  if (setup_failures > 0) outcome.failed = outcome.attempted;

  double l1_sum = 0.0;
  for (double l1 : checker.proposed_l1) l1_sum += l1;
  const double avg_l1 =
      checker.proposed_l1.empty()
          ? 0.0
          : l1_sum / static_cast<double>(checker.proposed_l1.size());

  MetricSet& m = outcome.metrics;
  m.SetMedian("setup_s", setup_s, "s");
  m.SetMedian("restore_s", restore_cpu, "s");
  m.SetMedian("trial_s", trial_cpu, "s");
  m.Set("trials_per_s", static_cast<double>(trial_cpu.size()) / makespan_cpu,
        "1/s", trial_cpu.size(),
        "trials per CPU second of each batch's slowest trial, on " +
            std::to_string(def.trial_workers) + " trial worker(s)");
  m.Set("avg_l1", avg_l1, "L1", checker.proposed_l1.size(),
        "mean 12-property L1 of Proposed over the distinct trials");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  m.SetMedian("ingest_edges_per_s", ingest_rate, "1/s");
  m.Set("failed_frac",
        outcome.attempted == 0
            ? 1.0
            : static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
        "ratio", outcome.attempted);

  auto values = [](const Series& series) {
    sgr::Json array = sgr::Json::Array();
    for (double v : series.values) array.Push(sgr::Json::Number(v));
    return array;
  };
  outcome.details.Set("setup_cpu_s", values(setup_s));
  outcome.details.Set("trial_cpu_s", values(trial_cpu));
  outcome.details.Set("trial_batch_wall_s", values(batch_wall));
  outcome.details.Set("restore_cpu_s", values(restore_cpu));
  provenance.extra.Set("working_set",
                       WorkingSetEstimate(restored_nodes, restored_edges));
  return outcome;
}

}  // namespace perfbench
