#ifndef SGR_BENCH_BENCH_COMMON_H_
#define SGR_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/properties.h"
#include "analysis/summary.h"
#include "exp/datasets.h"
#include "exp/parallel.h"
#include "exp/runner.h"
#include "exp/table_printer.h"
#include "graph/graph.h"
#include "restore/method.h"
#include "scenario/engine.h"
#include "scenario/report.h"
#include "obs/timer.h"
#include "util/strict_number.h"

namespace sgr::bench {

/// Knobs of the benches that build their own workload (the parallel
/// scaling benches, the dK ladder, Figure 4). The benches that reproduce
/// the paper's tables and the ablations run a built-in scenario instead
/// (RunBuiltinScenarioBench below) and read only SGR_THREADS and
/// SGR_DATASET_SCALE of these.
///
///   SGR_RUNS          runs per (dataset, method) cell
///   SGR_RC            rewiring coefficient RC (paper: 500)
///   SGR_FRACTION      queried-node fraction
///   SGR_PATH_SOURCES  BFS/Brandes sources for path properties
///                     (0 = exact all-pairs)
///   SGR_THREADS       worker threads for the Monte Carlo trials
///                     (0 = hardware concurrency; default 1)
///   SGR_DATASET_SCALE dataset size multiplier (see exp/datasets.h)
///   SGR_DATASET_DIR   directory with real edge lists (optional)
///
/// Command-line flags (parsed by FromArgs) override the environment:
///   --threads N       same as SGR_THREADS
///   --runs N          same as SGR_RUNS
///   --json PATH       additionally write the run as a structured JSON
///                     report (scenario/report.h schema), so every bench
///                     invocation can be recorded as a BENCH_*.json data
///                     point
///
/// Every number parses strictly (EnvOr/EnvUintOr, ParseStrictUint): unset
/// or empty means the default, and a malformed value ("2x", "-1") ends
/// the bench with an error naming it.
struct BenchConfig {
  std::size_t runs;
  double rc;
  double fraction;
  std::size_t path_sources;
  std::size_t threads = 1;
  std::string json_path;  ///< empty = no JSON report

  /// Every bench accepts `--threads N` (0 = hardware concurrency): Monte
  /// Carlo trials then run concurrently over one shared CsrGraph snapshot
  /// of the dataset, with the distance aggregates identical for every N
  /// (see RunExperiments). Zero runs is rejected, since zero trials only
  /// produces empty aggregates and divisions by zero downstream.
  static BenchConfig FromArgs(int argc, char** argv,
                              std::size_t default_runs, double default_rc,
                              std::size_t default_sources = 600) {
    BenchConfig c;
    try {
      c.runs = EnvUintOr("SGR_RUNS", default_runs);
      c.rc = EnvOr("SGR_RC", default_rc);
      c.fraction = EnvOr("SGR_FRACTION", 0.10);
      c.path_sources = EnvUintOr("SGR_PATH_SOURCES", default_sources);
      c.threads = EnvUintOr("SGR_THREADS", 1);
      for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0) {
          c.threads = ParseStrictUint(argv[i + 1], "--threads");
        } else if (std::strcmp(argv[i], "--runs") == 0) {
          c.runs = ParseStrictUint(argv[i + 1], "--runs");
        } else if (std::strcmp(argv[i], "--json") == 0) {
          c.json_path = argv[i + 1];
        }
      }
      if (c.runs == 0) {
        throw std::runtime_error("--runs / SGR_RUNS must be >= 1");
      }
    } catch (const std::exception& error) {
      // A bench must never run a workload other than the one asked for.
      std::cerr << "error: " << error.what() << "\n";
      std::exit(1);
    }
    return c;
  }

  ExperimentConfig ToExperimentConfig() const {
    ExperimentConfig config;
    config.query_fraction = fraction;
    config.restoration.rewire.rewiring_coefficient = rc;
    config.property_options.max_path_sources = path_sources;
    // Trial-level parallelism (--threads) is the benches' scaling axis;
    // per-trial Brandes evaluation stays single-threaded so every printed
    // number is bitwise identical for any --threads value (FP summation
    // order never changes).
    config.property_options.threads = 1;
    return config;
  }

  /// The shared config echo embedded in a --json report. Includes the
  /// resolved dataset-scale knob so two recorded reports taken at
  /// different $SGR_DATASET_SCALE are attributable to their matrices
  /// (scenario reports echo the same field from the spec).
  Json ToJsonEcho() const {
    Json echo = Json::Object();
    echo.Set("runs", Json::Number(static_cast<double>(runs)));
    echo.Set("rc", Json::Number(rc));
    echo.Set("fraction", Json::Number(fraction));
    echo.Set("path_sources",
             Json::Number(static_cast<double>(path_sources)));
    echo.Set("dataset_scale", Json::Number(EnvOr("SGR_DATASET_SCALE", 1.0)));
    return echo;
  }
};

/// Collects report cells across a bench run and writes the JSON report if
/// `--json PATH` was given. The report document (tool name, config echo,
/// environment capture, cells) is assembled by scenario/report.h — the
/// same writer the scenario engine uses.
class BenchJsonReport {
 public:
  BenchJsonReport(std::string tool, const BenchConfig& config)
      : tool_(std::move(tool)),
        config_echo_(config.ToJsonEcho()),
        path_(config.json_path),
        threads_(ResolveThreadCount(config.threads)),
        cells_(Json::Array()) {}

  /// Adds a custom cell. By convention volatile wall-clock values go
  /// under a "timings" member so StripVolatile works on these reports too.
  void Add(Json cell) { cells_.Push(std::move(cell)); }

  /// Writes the report when --json was requested; prints the path.
  void WriteIfRequested() const {
    if (path_.empty()) return;
    WriteJsonFile(MakeReport(tool_, config_echo_, cells_,
                             CaptureEnvironment(threads_)),
                  path_);
    std::cout << "\nwrote JSON report: " << path_ << "\n";
  }

 private:
  std::string tool_;
  Json config_echo_;
  std::string path_;
  std::size_t threads_;
  Json cells_;
};

/// Starts an ablation report cell: the dataset label plus the
/// materialized graph's size, so custom cells are attributable to their
/// inputs the same way scenario cells are. Callers add their "metrics"
/// (and optional "timings") members.
inline Json CustomCell(const DatasetSpec& spec, const Graph& dataset) {
  Json cell = Json::Object();
  cell.Set("dataset", Json::String(spec.name));
  cell.Set("nodes", Json::Number(static_cast<double>(dataset.NumNodes())));
  cell.Set("edges", Json::Number(static_cast<double>(dataset.NumEdges())));
  return cell;
}

/// Prints the standard bench banner with the dataset's actual size next to
/// the paper's Table I reference size.
inline void PrintDatasetBanner(const DatasetSpec& spec, const Graph& g) {
  std::cout << "## dataset " << spec.name << ": n = " << g.NumNodes()
            << ", m = " << g.NumEdges() << "  (paper: n = "
            << spec.paper_nodes << ", m = " << spec.paper_edges << ")\n";
}

/// Exit status of a thread-scaling bench: 1, with a note on stderr, when
/// a row of its "identical to 1-thread" column says NO, so a break in
/// thread-count determinism fails whatever runs the bench.
inline int IdentityExitCode(const char* bench, bool all_identical) {
  if (all_identical) return 0;
  std::cerr << bench << ": a row is not identical to the 1-thread run\n";
  return 1;
}

/// Column headers of a per-method table: `first`, then the run's methods
/// in the paper's column order (every cell's `methods` iterates in it).
inline std::vector<std::string> MethodHeaders(
    std::string first, const ScenarioRunResult& result) {
  std::vector<std::string> headers = {std::move(first)};
  for (const auto& [kind, aggregate] : result.cells.front().methods) {
    headers.push_back(MethodName(kind));
  }
  return headers;
}

/// The default table of RunBuiltinScenarioBench (the ablations): one row
/// per (cell, method) with the cell's knob label (CellKnobsLabel).
inline void PrintKnobTable(const ScenarioRunResult& result) {
  TablePrinter table(std::cout,
                     {"Dataset", "Knobs", "Method", "steps", "avg L1",
                      "final D", "rewire s"});
  for (const ScenarioCell& cell : result.cells) {
    std::string knobs = CellKnobsLabel(cell.knobs);
    knobs = knobs.empty() ? "-" : knobs.substr(1);
    for (const auto& [kind, aggregate] : cell.methods) {
      const DistanceSummary summary = aggregate.distances.Summarize();
      table.AddRow({cell.dataset, knobs, MethodName(kind),
                    TablePrinter::Fixed(aggregate.sample_steps, 0),
                    TablePrinter::Fixed(summary.mean_average),
                    TablePrinter::Fixed(aggregate.rewire.final_distance),
                    TablePrinter::Fixed(aggregate.rewiring_seconds, 2)});
    }
  }
  table.Print();
}

/// Runs a built-in scenario as a bench binary: the workload definition
/// lives entirely in the spec (scenario/spec.cc), execution goes through
/// RunScenario, and `--json PATH` writes ScenarioReportToJson — the very
/// function `sgr run <name> --out PATH` calls — so the two files are
/// byte-identical (including after StripVolatile). A bench binary is a
/// pre-named `sgr run` plus `print_tables`, its human-readable view of
/// the finished run (the paper-shaped tables of the table/figure benches;
/// PrintKnobTable for the ablations).
///
/// Flags: `--threads N` (beats $SGR_THREADS beats the spec; 0 = all
/// cores) and `--json PATH`, both parsed strictly. The workload itself
/// takes no env knobs on purpose — a knob that changed the workload
/// without changing the spec echo would break the report's
/// attributability. $SGR_DATASET_SCALE still applies (the built-ins leave
/// `dataset_scale` at 0); anything else goes through `sgr scenarios show
/// <name> > my.json` and `sgr run my.json`.
inline int RunBuiltinScenarioBench(
    const std::string& name, int argc, char** argv,
    const std::function<void(const ScenarioRunResult&)>& print_tables =
        PrintKnobTable) {
  try {
    const ScenarioSpec spec = BuiltinScenario(name);
    std::size_t threads = EnvUintOr("SGR_THREADS", spec.threads);
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--threads") == 0) {
        threads = ParseStrictUint(argv[i + 1], "--threads");
      } else if (std::strcmp(argv[i], "--json") == 0) {
        json_path = argv[i + 1];
      }
    }

    std::cout << "=== scenario '" << name
              << "': " << BuiltinScenarioDescription(name) << " ===\n"
              << "threads = " << ResolveThreadCount(threads)
              << " (timings are wall-clock inside concurrent trials; read "
                 "them at --threads 1)\n\n";
    const ScenarioRunResult result = RunScenario(spec, threads, &std::cout);
    std::cout << "\n";
    print_tables(result);

    if (!json_path.empty()) {
      WriteJsonFile(ScenarioReportToJson(result), json_path);
      std::cout << "\nwrote JSON report: " << json_path
                << " (byte-identical to `sgr run " << name << " --out`)\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace sgr::bench

#endif  // SGR_BENCH_BENCH_COMMON_H_
