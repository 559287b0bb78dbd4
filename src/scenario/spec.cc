#include "scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "exp/datasets.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sgr {

namespace {

/// Typed field extraction. Every helper names the key in its error so a
/// malformed scenario.json is diagnosable from the message alone.

double RequireNumber(const Json& value, const std::string& key) {
  if (!value.IsNumber()) {
    throw ScenarioError("'" + key + "' must be a number");
  }
  const double number = value.AsNumber();
  if (!std::isfinite(number)) {
    throw ScenarioError("'" + key + "' must be finite");
  }
  return number;
}

std::uint64_t RequireUint(const Json& value, const std::string& key) {
  const double number = RequireNumber(value, key);
  if (number < 0.0 || number != std::floor(number) || number > 9.0e15) {
    throw ScenarioError("'" + key + "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(number);
}

bool RequireBool(const Json& value, const std::string& key) {
  if (!value.IsBool()) {
    throw ScenarioError("'" + key + "' must be a boolean");
  }
  return value.AsBool();
}

std::string RequireString(const Json& value, const std::string& key) {
  if (!value.IsString()) {
    throw ScenarioError("'" + key + "' must be a string");
  }
  return value.AsString();
}

const std::vector<Json>& RequireArray(const Json& value,
                                      const std::string& key) {
  if (!value.IsArray()) {
    throw ScenarioError("'" + key + "' must be an array");
  }
  return value.Items();
}

void ValidateRegistryDataset(const std::string& name) {
  try {
    (void)DatasetByName(name);
  } catch (const std::out_of_range&) {
    throw ScenarioError("unknown dataset '" + name +
                        "' (anybeat|brightkite|epinions|slashdot|gowalla|"
                        "livemocha|youtube, or a generator object)");
  }
}

GeneratorSpec ParseGenerator(const Json& json) {
  GeneratorSpec gen;
  for (const auto& [key, value] : json.ObjectMembers()) {
    if (key == "name") {
      continue;  // consumed by the caller as the dataset label
    } else if (key == "model") {
      gen.model = RequireString(value, "datasets[].model");
    } else if (key == "nodes") {
      gen.nodes = static_cast<std::size_t>(RequireUint(value, "datasets[].nodes"));
    } else if (key == "edges_per_node") {
      gen.edges_per_node =
          static_cast<std::size_t>(RequireUint(value, "datasets[].edges_per_node"));
    } else if (key == "triad_p") {
      gen.triad_p = RequireNumber(value, "datasets[].triad_p");
    } else if (key == "fringe_fraction") {
      gen.fringe_fraction = RequireNumber(value, "datasets[].fringe_fraction");
    } else if (key == "edges") {
      gen.edges = static_cast<std::size_t>(RequireUint(value, "datasets[].edges"));
    } else if (key == "communities") {
      gen.communities =
          static_cast<std::size_t>(RequireUint(value, "datasets[].communities"));
    } else if (key == "bridges") {
      gen.bridges = static_cast<std::size_t>(RequireUint(value, "datasets[].bridges"));
    } else if (key == "seed") {
      gen.seed = RequireUint(value, "datasets[].seed");
    } else {
      throw ScenarioError("unknown generator key '" + key + "'");
    }
  }
  if (gen.model != "powerlaw" && gen.model != "ba" && gen.model != "er" &&
      gen.model != "community" && gen.model != "social") {
    throw ScenarioError("unknown generator model '" + gen.model +
                        "' (powerlaw|ba|er|community|social)");
  }
  if (gen.nodes < 10) {
    throw ScenarioError("'datasets[].nodes' must be >= 10");
  }
  if (gen.triad_p < 0.0 || gen.triad_p > 1.0) {
    throw ScenarioError("'datasets[].triad_p' must be in [0, 1]");
  }
  if (gen.fringe_fraction < 0.0 || gen.fringe_fraction >= 1.0) {
    throw ScenarioError("'datasets[].fringe_fraction' must be in [0, 1)");
  }
  return gen;
}

/// Parses an axis given as either one scalar or an array of scalars
/// (the document forms `"walk": "simple"` and `"walk": ["simple",
/// "non-backtracking"]` are both valid). `parse_one` maps one Json
/// element to the axis value type.
template <typename T, typename ParseOne>
std::vector<T> ParseScalarOrArray(const Json& value, const std::string& key,
                                  ParseOne parse_one) {
  std::vector<T> axis;
  if (value.IsArray()) {
    for (const Json& entry : value.Items()) {
      axis.push_back(parse_one(entry, key + "[]"));
    }
    if (axis.empty()) {
      throw ScenarioError("'" + key + "' must contain at least one value");
    }
  } else {
    axis.push_back(parse_one(value, key));
  }
  return axis;
}

EstimatorSpec ParseEstimator(const Json& value, const std::string& key) {
  if (!value.IsObject()) {
    throw ScenarioError("'" + key + "' must be an object");
  }
  EstimatorSpec estimator;
  for (const auto& [member, member_value] : value.ObjectMembers()) {
    if (member == "joint_mode") {
      estimator.joint_mode = JointModeFromToken(
          RequireString(member_value, key + ".joint_mode"));
    } else if (member == "collision_fraction") {
      estimator.collision_fraction =
          RequireNumber(member_value, key + ".collision_fraction");
    } else {
      throw ScenarioError("unknown estimator key '" + member + "'");
    }
  }
  return estimator;
}

CrawlNoise ParseNoise(const Json& value, const std::string& key) {
  if (!value.IsObject()) {
    throw ScenarioError("'" + key + "' must be an object");
  }
  CrawlNoise noise;
  for (const auto& [member, member_value] : value.ObjectMembers()) {
    if (member == "failure") {
      noise.failure = RequireNumber(member_value, key + ".failure");
    } else if (member == "hidden_edges") {
      noise.hidden_edges =
          RequireNumber(member_value, key + ".hidden_edges");
    } else if (member == "churn") {
      noise.churn = RequireNumber(member_value, key + ".churn");
    } else if (member == "api_budget") {
      noise.api_budget = RequireUint(member_value, key + ".api_budget");
    } else {
      throw ScenarioError("unknown noise key '" + member + "'");
    }
  }
  return noise;
}

std::vector<ScenarioDataset> ParseDatasets(const Json& value) {
  std::vector<ScenarioDataset> datasets;
  std::set<std::string> seen;
  for (const Json& entry : RequireArray(value, "datasets")) {
    ScenarioDataset dataset;
    if (entry.IsString()) {
      dataset.name = entry.AsString();
      ValidateRegistryDataset(dataset.name);
    } else if (entry.IsObject()) {
      dataset.name = "generated";
      if (const Json* label = entry.Find("name")) {
        dataset.name = RequireString(*label, "datasets[].name");
      }
      dataset.generator = ParseGenerator(entry);
    } else {
      throw ScenarioError(
          "'datasets' entries must be registry names or generator objects");
    }
    if (!seen.insert(dataset.name).second) {
      throw ScenarioError("duplicate dataset '" + dataset.name + "'");
    }
    datasets.push_back(std::move(dataset));
  }
  if (datasets.empty()) {
    throw ScenarioError("'datasets' must name at least one dataset");
  }
  return datasets;
}

}  // namespace

Graph BuildGeneratorGraph(const GeneratorSpec& gen) {
  // Enforce the generators' hard preconditions (asserts in
  // graph/generators.cc, compiled out under NDEBUG) as proper errors, so
  // a schema-valid but infeasible spec fails cleanly in Release instead
  // of crashing or hanging.
  const auto require = [](bool ok, const std::string& message) {
    if (!ok) throw ScenarioError("generator: " + message);
  };
  if (gen.model == "powerlaw" || gen.model == "ba" ||
      gen.model == "community" || gen.model == "social") {
    require(gen.edges_per_node >= 1, "'edges_per_node' must be >= 1");
  }
  if (gen.model == "powerlaw" || gen.model == "ba") {
    require(gen.nodes > gen.edges_per_node,
            "'nodes' must exceed 'edges_per_node'");
  } else if (gen.model == "er") {
    const std::size_t edges = gen.edges > 0 ? gen.edges : 4 * gen.nodes;
    const double max_edges = 0.5 * static_cast<double>(gen.nodes) *
                             static_cast<double>(gen.nodes - 1);
    require(static_cast<double>(edges) <= max_edges,
            "'edges' exceeds the simple-graph maximum n(n-1)/2");
  } else if (gen.model == "community") {
    require(gen.communities >= 1, "'communities' must be >= 1");
    require(gen.communities <= gen.nodes &&
                gen.nodes / gen.communities > gen.edges_per_node,
            "community size (nodes / communities) must exceed "
            "'edges_per_node'");
  } else if (gen.model == "social") {
    require(gen.fringe_fraction >= 0.0 && gen.fringe_fraction < 1.0,
            "'fringe_fraction' must be in [0, 1)");
    const auto core_nodes = static_cast<std::size_t>(
        static_cast<double>(gen.nodes) * (1.0 - gen.fringe_fraction));
    require(core_nodes > gen.edges_per_node,
            "core size ((1 - fringe_fraction) * nodes) must exceed "
            "'edges_per_node'");
  }

  Rng rng(gen.seed);
  Graph g;
  if (gen.model == "powerlaw") {
    g = GeneratePowerlawCluster(gen.nodes, gen.edges_per_node, gen.triad_p,
                                rng);
  } else if (gen.model == "ba") {
    g = GenerateBarabasiAlbert(gen.nodes, gen.edges_per_node, rng);
  } else if (gen.model == "er") {
    const std::size_t edges = gen.edges > 0 ? gen.edges : 4 * gen.nodes;
    g = GenerateErdosRenyiGnm(gen.nodes, edges, rng);
  } else if (gen.model == "community") {
    const std::size_t bridges =
        gen.bridges > 0 ? gen.bridges : gen.nodes / 50 + 1;
    g = GenerateCommunityGraph(gen.nodes, gen.communities,
                               gen.edges_per_node, gen.triad_p, bridges,
                               rng);
  } else if (gen.model == "social") {
    g = GenerateSocialGraph(gen.nodes, gen.edges_per_node, gen.triad_p,
                            gen.fringe_fraction, rng);
  } else {
    throw ScenarioError("unknown generator model '" + gen.model +
                        "' (powerlaw|ba|er|community|social)");
  }
  return PreprocessDataset(g);
}

MethodKind MethodKindFromToken(const std::string& token) {
  if (token == "bfs") return MethodKind::kBfs;
  if (token == "snowball") return MethodKind::kSnowball;
  if (token == "ff") return MethodKind::kForestFire;
  if (token == "rw") return MethodKind::kRandomWalk;
  if (token == "gjoka") return MethodKind::kGjoka;
  if (token == "proposed") return MethodKind::kProposed;
  throw ScenarioError("unknown method '" + token +
                      "' (bfs|snowball|ff|rw|gjoka|proposed)");
}

std::string MethodToken(MethodKind kind) {
  switch (kind) {
    case MethodKind::kBfs: return "bfs";
    case MethodKind::kSnowball: return "snowball";
    case MethodKind::kForestFire: return "ff";
    case MethodKind::kRandomWalk: return "rw";
    case MethodKind::kGjoka: return "gjoka";
    case MethodKind::kProposed: return "proposed";
  }
  return "unknown";
}

WalkKind WalkKindFromToken(const std::string& token) {
  if (token == "simple") return WalkKind::kSimple;
  if (token == "non-backtracking") return WalkKind::kNonBacktracking;
  if (token == "metropolis-hastings") return WalkKind::kMetropolisHastings;
  throw ScenarioError("unknown walk '" + token +
                      "' (simple|non-backtracking|metropolis-hastings)");
}

std::string WalkToken(WalkKind kind) {
  switch (kind) {
    case WalkKind::kSimple: return "simple";
    case WalkKind::kNonBacktracking: return "non-backtracking";
    case WalkKind::kMetropolisHastings: return "metropolis-hastings";
  }
  return "unknown";
}

CrawlerKind CrawlerKindFromToken(const std::string& token) {
  if (token == "rw") return CrawlerKind::kRw;
  if (token == "frontier") return CrawlerKind::kFrontier;
  if (token == "mhrw") return CrawlerKind::kMhrw;
  if (token == "bfs") return CrawlerKind::kBfs;
  if (token == "snowball") return CrawlerKind::kSnowball;
  if (token == "ff") return CrawlerKind::kFf;
  throw ScenarioError("unknown crawler '" + token +
                      "' (rw|frontier|mhrw|bfs|snowball|ff)");
}

std::string CrawlerToken(CrawlerKind kind) {
  switch (kind) {
    case CrawlerKind::kRw: return "rw";
    case CrawlerKind::kFrontier: return "frontier";
    case CrawlerKind::kMhrw: return "mhrw";
    case CrawlerKind::kBfs: return "bfs";
    case CrawlerKind::kSnowball: return "snowball";
    case CrawlerKind::kFf: return "ff";
  }
  return "unknown";
}

JointEstimatorMode JointModeFromToken(const std::string& token) {
  if (token == "hybrid") return JointEstimatorMode::kHybrid;
  if (token == "ie") return JointEstimatorMode::kInducedEdgesOnly;
  if (token == "te") return JointEstimatorMode::kTraversedEdgesOnly;
  throw ScenarioError("unknown joint_mode '" + token + "' (hybrid|ie|te)");
}

std::string JointModeToken(JointEstimatorMode mode) {
  switch (mode) {
    case JointEstimatorMode::kHybrid: return "hybrid";
    case JointEstimatorMode::kInducedEdgesOnly: return "ie";
    case JointEstimatorMode::kTraversedEdgesOnly: return "te";
  }
  return "unknown";
}

ScenarioSpec ScenarioSpec::FromJson(const Json& json) {
  if (!json.IsObject()) {
    throw ScenarioError("scenario document must be a JSON object");
  }
  ScenarioSpec spec;
  bool saw_datasets = false;
  for (const auto& [key, value] : json.ObjectMembers()) {
    if (key == "name") {
      spec.name = RequireString(value, key);
    } else if (key == "datasets") {
      spec.datasets = ParseDatasets(value);
      saw_datasets = true;
    } else if (key == "fractions") {
      spec.fractions.clear();
      for (const Json& f : RequireArray(value, key)) {
        spec.fractions.push_back(RequireNumber(f, "fractions[]"));
      }
    } else if (key == "methods") {
      spec.methods.clear();
      for (const Json& m : RequireArray(value, key)) {
        spec.methods.push_back(
            MethodKindFromToken(RequireString(m, "methods[]")));
      }
    } else if (key == "trials") {
      spec.trials = static_cast<std::size_t>(RequireUint(value, key));
    } else if (key == "threads") {
      spec.threads = static_cast<std::size_t>(RequireUint(value, key));
    } else if (key == "seed_base") {
      spec.seed_base = RequireUint(value, key);
    } else if (key == "walk") {
      spec.walks = ParseScalarOrArray<WalkKind>(
          value, key, [](const Json& v, const std::string& k) {
            return WalkKindFromToken(RequireString(v, k));
          });
    } else if (key == "crawler") {
      spec.crawlers = ParseScalarOrArray<CrawlerKind>(
          value, key, [](const Json& v, const std::string& k) {
            return CrawlerKindFromToken(RequireString(v, k));
          });
    } else if (key == "estimator") {
      spec.estimators = ParseScalarOrArray<EstimatorSpec>(
          value, key, [](const Json& v, const std::string& k) {
            return ParseEstimator(v, k);
          });
    } else if (key == "rc") {
      spec.rcs = ParseScalarOrArray<double>(
          value, key, [](const Json& v, const std::string& k) {
            return RequireNumber(v, k);
          });
    } else if (key == "protect_subgraph") {
      spec.protects = ParseScalarOrArray<bool>(
          value, key, [](const Json& v, const std::string& k) {
            return RequireBool(v, k);
          });
    } else if (key == "frontier_walkers") {
      spec.frontier_walkers = ParseScalarOrArray<std::size_t>(
          value, key, [](const Json& v, const std::string& k) {
            return static_cast<std::size_t>(RequireUint(v, k));
          });
    } else if (key == "rewire_batch") {
      spec.rewire_batches = ParseScalarOrArray<std::size_t>(
          value, key, [](const Json& v, const std::string& k) {
            return static_cast<std::size_t>(RequireUint(v, k));
          });
    } else if (key == "noise") {
      spec.noises = ParseScalarOrArray<CrawlNoise>(
          value, key, [](const Json& v, const std::string& k) {
            return ParseNoise(v, k);
          });
    } else if (key == "rewire_threads") {
      spec.rewire_threads =
          static_cast<std::size_t>(RequireUint(value, key));
    } else if (key == "parallel_assembly") {
      spec.parallel_assembly = RequireBool(value, key);
    } else if (key == "assembly_threads") {
      spec.assembly_threads =
          static_cast<std::size_t>(RequireUint(value, key));
    } else if (key == "estimator_threads") {
      spec.estimator_threads =
          static_cast<std::size_t>(RequireUint(value, key));
    } else if (key == "path_sources") {
      spec.path_sources = static_cast<std::size_t>(RequireUint(value, key));
    } else if (key == "snowball_k") {
      spec.snowball_k = static_cast<std::size_t>(RequireUint(value, key));
    } else if (key == "forest_fire_pf") {
      spec.forest_fire_pf = RequireNumber(value, key);
    } else if (key == "simplify_output") {
      spec.simplify_output = RequireBool(value, key);
    } else if (key == "dataset_scale") {
      spec.dataset_scale = RequireNumber(value, key);
    } else if (key == "track_properties") {
      spec.track_properties = RequireBool(value, key);
    } else if (key == "stop_epsilon") {
      spec.stop_epsilon = RequireNumber(value, key);
    } else {
      throw ScenarioError("unknown key '" + key + "'");
    }
  }
  if (!saw_datasets) {
    throw ScenarioError("'datasets' is required");
  }
  spec.Validate();
  return spec;
}

void ScenarioSpec::Validate() const {
  // Every numeric knob is checked for finiteness here even though the
  // typed JSON readers already reject Infinity/NaN — a spec built in
  // C++ (or mutated after parsing) reaches the engine through this
  // method alone.
  const auto require_finite = [](double value, const char* key) {
    if (!std::isfinite(value)) {
      throw ScenarioError(std::string("'") + key + "' must be finite");
    }
  };

  if (datasets.empty()) {
    throw ScenarioError("'datasets' must name at least one dataset");
  }
  {
    std::set<std::string> seen;
    for (const ScenarioDataset& dataset : datasets) {
      if (dataset.name.empty()) {
        throw ScenarioError("'datasets[].name' must be non-empty");
      }
      if (!seen.insert(dataset.name).second) {
        throw ScenarioError("duplicate dataset '" + dataset.name + "'");
      }
      if (dataset.generator) {
        const GeneratorSpec& gen = *dataset.generator;
        require_finite(gen.triad_p, "datasets[].triad_p");
        require_finite(gen.fringe_fraction, "datasets[].fringe_fraction");
        if (gen.nodes < 10) {
          throw ScenarioError("'datasets[].nodes' must be >= 10");
        }
        if (gen.triad_p < 0.0 || gen.triad_p > 1.0) {
          throw ScenarioError("'datasets[].triad_p' must be in [0, 1]");
        }
        if (gen.fringe_fraction < 0.0 || gen.fringe_fraction >= 1.0) {
          throw ScenarioError(
              "'datasets[].fringe_fraction' must be in [0, 1)");
        }
      }
    }
  }

  if (fractions.empty()) {
    throw ScenarioError("'fractions' must contain at least one value");
  }
  for (double fraction : fractions) {
    require_finite(fraction, "fractions");
    if (fraction <= 0.0 || fraction > 1.0) {
      throw ScenarioError("'fractions' entries must be in (0, 1]");
    }
  }

  if (methods.empty()) {
    throw ScenarioError("'methods' must name at least one method");
  }
  {
    std::set<std::string> seen;
    for (MethodKind kind : methods) {
      if (!seen.insert(MethodToken(kind)).second) {
        throw ScenarioError("duplicate method '" + MethodToken(kind) + "'");
      }
    }
  }

  if (trials == 0) throw ScenarioError("'trials' must be >= 1");

  const auto require_axis_unique =
      [](const std::vector<std::string>& tokens, const char* key) {
        std::set<std::string> seen;
        for (const std::string& token : tokens) {
          if (!seen.insert(token).second) {
            throw ScenarioError(std::string("duplicate ") + key + " '" +
                                token + "'");
          }
        }
      };
  if (walks.empty()) {
    throw ScenarioError("'walk' must contain at least one value");
  }
  {
    std::vector<std::string> tokens;
    for (WalkKind walk : walks) tokens.push_back(WalkToken(walk));
    require_axis_unique(tokens, "walk");
  }
  if (crawlers.empty()) {
    throw ScenarioError("'crawler' must contain at least one value");
  }
  {
    std::vector<std::string> tokens;
    for (CrawlerKind crawler : crawlers) {
      tokens.push_back(CrawlerToken(crawler));
    }
    require_axis_unique(tokens, "crawler");
  }

  if (estimators.empty()) {
    throw ScenarioError("'estimator' must contain at least one variant");
  }
  for (std::size_t i = 0; i < estimators.size(); ++i) {
    require_finite(estimators[i].collision_fraction,
                   "estimator.collision_fraction");
    if (estimators[i].collision_fraction <= 0.0 ||
        estimators[i].collision_fraction >= 1.0) {
      throw ScenarioError(
          "'estimator.collision_fraction' must be in (0, 1)");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (estimators[j] == estimators[i]) {
        throw ScenarioError("duplicate estimator variant");
      }
    }
  }

  if (rcs.empty()) {
    throw ScenarioError("'rc' must contain at least one value");
  }
  {
    std::set<double> seen;
    for (double rc : rcs) {
      require_finite(rc, "rc");
      if (rc < 0.0) throw ScenarioError("'rc' must be >= 0");
      if (!seen.insert(rc).second) {
        throw ScenarioError("duplicate rc value");
      }
    }
  }

  if (protects.empty()) {
    throw ScenarioError(
        "'protect_subgraph' must contain at least one value");
  }
  if (protects.size() > 2) {
    throw ScenarioError("duplicate protect_subgraph value");
  }
  if (protects.size() == 2 && protects[0] == protects[1]) {
    throw ScenarioError("duplicate protect_subgraph value");
  }

  // Cross-axis rules. A non-walk crawl cannot feed the re-weighted
  // estimators, and a walk discipline other than "simple" only means
  // something for the single-walker rw crawler.
  const bool has_generative =
      std::count(methods.begin(), methods.end(), MethodKind::kGjoka) > 0 ||
      std::count(methods.begin(), methods.end(), MethodKind::kProposed) > 0;
  for (CrawlerKind crawler : crawlers) {
    const bool non_walk = crawler == CrawlerKind::kBfs ||
                          crawler == CrawlerKind::kSnowball ||
                          crawler == CrawlerKind::kFf;
    if (non_walk && has_generative) {
      throw ScenarioError(
          "crawler '" + CrawlerToken(crawler) +
          "' produces a non-walk sample; the generative methods "
          "(gjoka|proposed) require a walk crawler (rw|frontier|mhrw)");
    }
  }
  for (WalkKind walk : walks) {
    if (walk == WalkKind::kSimple) continue;
    for (CrawlerKind crawler : crawlers) {
      if (crawler != CrawlerKind::kRw) {
        throw ScenarioError(
            "walk '" + WalkToken(walk) +
            "' only applies to the rw crawler (crawler '" +
            CrawlerToken(crawler) + "' fixes its own walk discipline)");
      }
    }
  }

  if (frontier_walkers.empty()) {
    throw ScenarioError(
        "'frontier_walkers' must contain at least one value");
  }
  {
    std::set<std::size_t> seen;
    for (std::size_t walkers : frontier_walkers) {
      if (walkers == 0) {
        throw ScenarioError("'frontier_walkers' must be >= 1");
      }
      if (!seen.insert(walkers).second) {
        throw ScenarioError("duplicate frontier_walkers value");
      }
    }
  }
  if (frontier_walkers.size() > 1 &&
      !(crawlers.size() == 1 && crawlers[0] == CrawlerKind::kFrontier)) {
    throw ScenarioError(
        "a 'frontier_walkers' sweep requires the crawler axis to be "
        "exactly [\"frontier\"] (every other crawler ignores the knob, so "
        "its cells would be duplicated once per walker value)");
  }
  if (rewire_batches.empty()) {
    throw ScenarioError("'rewire_batch' must contain at least one value");
  }
  {
    std::set<std::size_t> seen;
    for (std::size_t batch : rewire_batches) {
      if (batch == 0) {
        throw ScenarioError(
            "'rewire_batch' must be >= 1 (1 is the paper's schedule)");
      }
      if (!seen.insert(batch).second) {
        throw ScenarioError("duplicate rewire_batch value");
      }
    }
  }
  if (noises.empty()) {
    throw ScenarioError("'noise' must contain at least one variant");
  }
  for (std::size_t i = 0; i < noises.size(); ++i) {
    const CrawlNoise& noise = noises[i];
    const auto require_noise_prob = [&require_finite](double p,
                                                      const char* key) {
      require_finite(p, key);
      if (p < 0.0 || p > 0.9) {
        // The oracle itself accepts [0, 1]; the spec stops at 0.9 because
        // a cell where (almost) every query fails measures nothing.
        throw ScenarioError(std::string("'") + key +
                            "' must be in [0, 0.9]");
      }
    };
    require_noise_prob(noise.failure, "noise.failure");
    require_noise_prob(noise.hidden_edges, "noise.hidden_edges");
    require_noise_prob(noise.churn, "noise.churn");
    for (std::size_t j = 0; j < i; ++j) {
      if (noises[j] == noises[i]) {
        throw ScenarioError("duplicate noise variant");
      }
    }
  }
  if (snowball_k == 0) throw ScenarioError("'snowball_k' must be >= 1");
  require_finite(forest_fire_pf, "forest_fire_pf");
  if (forest_fire_pf <= 0.0 || forest_fire_pf >= 1.0) {
    throw ScenarioError("'forest_fire_pf' must be in (0, 1)");
  }
  require_finite(dataset_scale, "dataset_scale");
  if (dataset_scale < 0.0) {
    throw ScenarioError("'dataset_scale' must be >= 0");
  }
  require_finite(stop_epsilon, "stop_epsilon");
  if (stop_epsilon < 0.0) {
    throw ScenarioError("'stop_epsilon' must be >= 0");
  }
  if (stop_epsilon > 0.0 && !track_properties) {
    throw ScenarioError(
        "'stop_epsilon' requires 'track_properties': true (the adaptive "
        "stop reads the tracked clustering distance)");
  }
}

Json ScenarioSpec::ToJson() const {
  Json json = Json::Object();
  json.Set("name", Json::String(name));
  Json dataset_array = Json::Array();
  for (const ScenarioDataset& dataset : datasets) {
    if (!dataset.generator) {
      dataset_array.Push(Json::String(dataset.name));
      continue;
    }
    const GeneratorSpec& gen = *dataset.generator;
    Json entry = Json::Object();
    entry.Set("name", Json::String(dataset.name));
    entry.Set("model", Json::String(gen.model));
    entry.Set("nodes", Json::Number(static_cast<double>(gen.nodes)));
    entry.Set("edges_per_node",
              Json::Number(static_cast<double>(gen.edges_per_node)));
    entry.Set("triad_p", Json::Number(gen.triad_p));
    entry.Set("fringe_fraction", Json::Number(gen.fringe_fraction));
    entry.Set("edges", Json::Number(static_cast<double>(gen.edges)));
    entry.Set("communities",
              Json::Number(static_cast<double>(gen.communities)));
    entry.Set("bridges", Json::Number(static_cast<double>(gen.bridges)));
    entry.Set("seed", Json::Number(static_cast<double>(gen.seed)));
    dataset_array.Push(std::move(entry));
  }
  json.Set("datasets", std::move(dataset_array));
  Json fraction_array = Json::Array();
  for (double fraction : fractions) {
    fraction_array.Push(Json::Number(fraction));
  }
  json.Set("fractions", std::move(fraction_array));
  Json method_array = Json::Array();
  for (MethodKind kind : methods) {
    method_array.Push(Json::String(MethodToken(kind)));
  }
  json.Set("methods", std::move(method_array));
  json.Set("trials", Json::Number(static_cast<double>(trials)));
  json.Set("threads", Json::Number(static_cast<double>(threads)));
  json.Set("seed_base", Json::Number(static_cast<double>(seed_base)));

  // Axes serialize as a scalar when they hold one value and as an array
  // otherwise, mirroring the two accepted document forms.
  const auto scalar_or_array = [](std::vector<Json> items) {
    if (items.size() == 1) return std::move(items.front());
    Json array = Json::Array();
    for (Json& item : items) array.Push(std::move(item));
    return array;
  };
  {
    std::vector<Json> items;
    for (WalkKind walk : walks) items.push_back(Json::String(WalkToken(walk)));
    json.Set("walk", scalar_or_array(std::move(items)));
  }
  {
    std::vector<Json> items;
    for (CrawlerKind crawler : crawlers) {
      items.push_back(Json::String(CrawlerToken(crawler)));
    }
    json.Set("crawler", scalar_or_array(std::move(items)));
  }
  {
    std::vector<Json> items;
    for (const EstimatorSpec& estimator : estimators) {
      Json entry = Json::Object();
      entry.Set("joint_mode",
                Json::String(JointModeToken(estimator.joint_mode)));
      entry.Set("collision_fraction",
                Json::Number(estimator.collision_fraction));
      items.push_back(std::move(entry));
    }
    json.Set("estimator", scalar_or_array(std::move(items)));
  }
  {
    std::vector<Json> items;
    for (double rc : rcs) items.push_back(Json::Number(rc));
    json.Set("rc", scalar_or_array(std::move(items)));
  }
  {
    std::vector<Json> items;
    for (bool protect : protects) items.push_back(Json::Bool(protect));
    json.Set("protect_subgraph", scalar_or_array(std::move(items)));
  }
  {
    std::vector<Json> items;
    for (std::size_t walkers : frontier_walkers) {
      items.push_back(Json::Number(static_cast<double>(walkers)));
    }
    json.Set("frontier_walkers", scalar_or_array(std::move(items)));
  }
  {
    std::vector<Json> items;
    for (std::size_t batch : rewire_batches) {
      items.push_back(Json::Number(static_cast<double>(batch)));
    }
    json.Set("rewire_batch", scalar_or_array(std::move(items)));
  }
  // The noise axis is emitted only when it departs from the default
  // single cooperative-oracle entry, so pre-existing reports (which embed
  // this document verbatim) stay byte-identical; the omitted form parses
  // back to the same default, preserving the round-trip.
  if (!(noises.size() == 1 && !noises.front().Active())) {
    std::vector<Json> items;
    for (const CrawlNoise& noise : noises) {
      Json entry = Json::Object();
      entry.Set("failure", Json::Number(noise.failure));
      entry.Set("hidden_edges", Json::Number(noise.hidden_edges));
      entry.Set("churn", Json::Number(noise.churn));
      entry.Set("api_budget",
                Json::Number(static_cast<double>(noise.api_budget)));
      items.push_back(std::move(entry));
    }
    json.Set("noise", scalar_or_array(std::move(items)));
  }
  json.Set("rewire_threads",
           Json::Number(static_cast<double>(rewire_threads)));
  json.Set("parallel_assembly", Json::Bool(parallel_assembly));
  json.Set("assembly_threads",
           Json::Number(static_cast<double>(assembly_threads)));
  json.Set("estimator_threads",
           Json::Number(static_cast<double>(estimator_threads)));
  json.Set("path_sources", Json::Number(static_cast<double>(path_sources)));
  json.Set("snowball_k", Json::Number(static_cast<double>(snowball_k)));
  json.Set("forest_fire_pf", Json::Number(forest_fire_pf));
  json.Set("simplify_output", Json::Bool(simplify_output));
  json.Set("dataset_scale", Json::Number(dataset_scale));
  json.Set("track_properties", Json::Bool(track_properties));
  json.Set("stop_epsilon", Json::Number(stop_epsilon));
  return json;
}

ExperimentConfig ScenarioSpec::ToExperimentConfig(
    const CellKnobs& knobs) const {
  ExperimentConfig config;
  config.query_fraction = knobs.fraction;
  config.methods = methods;
  config.snowball_k = snowball_k;
  config.forest_fire_pf = forest_fire_pf;
  config.walk = knobs.walk;
  config.crawler = knobs.crawler;
  config.frontier_walkers = knobs.frontier_walkers;
  config.restoration.rewire.rewiring_coefficient = knobs.rc;
  config.restoration.parallel_rewire.batch_size = knobs.rewire_batch;
  config.restoration.parallel_rewire.threads = rewire_threads;
  config.restoration.parallel_assembly.enabled = parallel_assembly;
  config.restoration.parallel_assembly.threads = assembly_threads;
  config.restoration.estimator.threads = estimator_threads;
  config.restoration.simplify_output = simplify_output;
  config.restoration.track_properties = track_properties;
  config.restoration.stop_epsilon = stop_epsilon;
  config.restoration.protect_subgraph = knobs.protect_subgraph;
  config.noise = knobs.noise;
  config.restoration.estimator.joint_mode = knobs.estimator.joint_mode;
  config.restoration.estimator.collision_threshold_fraction =
      knobs.estimator.collision_fraction;
  // The clustering normalizer is derived from the walk axis inside the
  // runner; setting it here too keeps direct ExperimentConfig consumers
  // (RestoreProposed callers) consistent.
  config.restoration.estimator.walk_type =
      (knobs.crawler == CrawlerKind::kRw &&
       knobs.walk == WalkKind::kNonBacktracking)
          ? WalkType::kNonBacktracking
          : WalkType::kSimple;
  config.property_options.max_path_sources = path_sources;
  // Trial-level parallelism is the engine's scaling axis; per-trial
  // property evaluation stays single-threaded so the report is
  // byte-identical for every thread count (FP summation order fixed).
  config.property_options.threads = 1;
  return config;
}

ExperimentConfig ScenarioSpec::ToExperimentConfig(double fraction) const {
  CellKnobs knobs;
  knobs.fraction = fraction;
  knobs.walk = walks.front();
  knobs.crawler = crawlers.front();
  knobs.estimator = estimators.front();
  knobs.rc = rcs.front();
  knobs.protect_subgraph = protects.front();
  knobs.rewire_batch = rewire_batches.front();
  knobs.frontier_walkers = frontier_walkers.front();
  knobs.noise = noises.front();
  return ToExperimentConfig(knobs);
}

std::vector<CellKnobs> ScenarioSpec::ExpandKnobs() const {
  std::vector<CellKnobs> expanded;
  for (double fraction : fractions) {
    for (WalkKind walk : walks) {
      for (CrawlerKind crawler : crawlers) {
        for (const EstimatorSpec& estimator : estimators) {
          for (double rc : rcs) {
            for (bool protect : protects) {
              for (std::size_t batch : rewire_batches) {
                for (std::size_t walkers : frontier_walkers) {
                  for (const CrawlNoise& noise : noises) {
                    CellKnobs knobs;
                    knobs.fraction = fraction;
                    knobs.walk = walk;
                    knobs.crawler = crawler;
                    knobs.estimator = estimator;
                    knobs.rc = rc;
                    knobs.protect_subgraph = protect;
                    knobs.rewire_batch = batch;
                    knobs.frontier_walkers = walkers;
                    knobs.noise = noise;
                    expanded.push_back(knobs);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return expanded;
}

std::vector<std::string> BuiltinScenarioNames() {
  return {"tables-smoke",  "table2",        "table3",
          "table4-time",   "table5-youtube", "fig3-sweep",
          "ablation-walk", "ablation-rc",   "ablation-jdm",
          "ablation-rewire", "ablation-batch", "ablation-frontier",
          "ablation-noise"};
}

bool IsBuiltinScenario(const std::string& name) {
  for (const std::string& builtin : BuiltinScenarioNames()) {
    if (builtin == name) return true;
  }
  return false;
}

std::string BuiltinScenarioDescription(const std::string& name) {
  if (name == "tables-smoke") {
    return "CI-sized smoke matrix: 2 small stand-ins, 2 trials, RC 10 "
           "(seconds; the recorded BENCH_scenarios.json baseline)";
  }
  if (name == "table2") {
    return "Table II protocol: per-property L1 on Slashdot/Gowalla/"
           "Livemocha, 10% queried";
  }
  if (name == "table3") {
    return "Table III protocol: avg +- SD of L1 on the six standard "
           "datasets, 10% queried";
  }
  if (name == "table4-time") {
    return "Table IV protocol: generation times at RC = 500 (read timings "
           "with --threads 1)";
  }
  if (name == "table5-youtube") {
    return "Table V protocol: the YouTube stand-in at 1% queried";
  }
  if (name == "fig3-sweep") {
    return "Figure 3 protocol: query-fraction sweep 2%-10% on Anybeat/"
           "Brightkite/Epinions";
  }
  if (name == "ablation-walk") {
    return "Walk ablation: simple vs non-backtracking walk through the "
           "proposed pipeline (Section II extension)";
  }
  if (name == "ablation-rc") {
    return "Rewiring-budget ablation: RC sweep 0-500 on the Brightkite "
           "stand-in (Section IV-E)";
  }
  if (name == "ablation-jdm") {
    return "Joint-degree-estimator ablation: hybrid vs IE-only vs "
           "TE-only (Section III-E)";
  }
  if (name == "ablation-rewire") {
    return "Candidate-set ablation: protected (E~ \\ E') vs all-edges "
           "rewiring inside the proposed pipeline (Section IV-E)";
  }
  if (name == "ablation-batch") {
    return "Rewiring round-size ablation: the paper's one-at-a-time "
           "schedule (batch 1) vs speculative rounds (rewire_batch sweep) "
           "through the parallel Algorithm 5 assembly";
  }
  if (name == "ablation-frontier") {
    return "Frontier walker-count sweep: coupled-walker budget vs "
           "restoration accuracy (frontier_walkers axis)";
  }
  if (name == "ablation-noise") {
    return "Adversarial-oracle sweep: cooperative oracle vs private "
           "accounts vs hidden edges vs churn vs an API-call budget "
           "(noise axis), all six methods";
  }
  throw ScenarioError("unknown built-in scenario '" + name + "'");
}

ScenarioSpec BuiltinScenario(const std::string& name) {
  const auto registry = [](std::initializer_list<const char*> names) {
    std::vector<ScenarioDataset> datasets;
    for (const char* dataset : names) datasets.push_back({dataset, {}});
    return datasets;
  };
  const std::vector<ScenarioDataset> standard = registry(
      {"anybeat", "brightkite", "epinions", "slashdot", "gowalla",
       "livemocha"});

  ScenarioSpec spec;
  spec.name = name;
  if (name == "tables-smoke") {
    spec.datasets = registry({"anybeat", "brightkite"});
    spec.trials = 2;
    spec.rcs = {10.0};
    spec.path_sources = 40;
    spec.dataset_scale = 0.1;
    spec.seed_base = 0x5A0E;
  } else if (name == "table2") {
    spec.datasets = registry({"slashdot", "gowalla", "livemocha"});
    spec.trials = 3;
    spec.rcs = {100.0};
    spec.path_sources = 600;
    spec.seed_base = 0x7AB'2000;
  } else if (name == "table3") {
    spec.datasets = standard;
    spec.trials = 3;
    spec.rcs = {100.0};
    spec.path_sources = 600;
    spec.seed_base = 0x7AB'3000;
  } else if (name == "table4-time") {
    spec.datasets = standard;
    spec.trials = 2;
    spec.rcs = {500.0};
    spec.path_sources = 64;
    spec.seed_base = 0x7AB'4000;
  } else if (name == "table5-youtube") {
    spec.datasets = registry({"youtube"});
    spec.fractions = {0.01};
    spec.trials = 2;
    spec.rcs = {50.0};
    spec.path_sources = 300;
    spec.seed_base = 0x7AB'5000;
  } else if (name == "fig3-sweep") {
    spec.datasets = registry({"anybeat", "brightkite", "epinions"});
    spec.fractions = {0.02, 0.04, 0.06, 0.08, 0.10};
    spec.trials = 3;
    spec.rcs = {100.0};
    spec.path_sources = 600;
    spec.seed_base = 0xF16'3000;
  } else if (name == "ablation-walk") {
    // SRW vs NBRW through the full proposed pipeline. The sample_steps
    // field of each cell carries the walk-length comparison (NBRW needs
    // fewer steps for the same query budget); the distances carry the
    // restoration-accuracy comparison. Recording-friendly scale — raise
    // dataset_scale toward 1 for the paper-sized protocol.
    spec.datasets = standard;
    spec.methods = {MethodKind::kProposed};
    spec.walks = {WalkKind::kSimple, WalkKind::kNonBacktracking};
    spec.trials = 3;
    spec.rcs = {100.0};
    spec.path_sources = 40;
    spec.dataset_scale = 0.15;
    spec.seed_base = 0xAB4'0000;
  } else if (name == "ablation-rc") {
    // The accuracy/time trade-off of the rewiring budget: final D falls
    // with RC while rewiring time grows linearly (read timings with
    // --threads 1). The per-method "rewire" stats block carries
    // initial/final D and the acceptance counters.
    spec.datasets = registry({"brightkite"});
    spec.methods = {MethodKind::kProposed};
    spec.rcs = {0.0, 10.0, 50.0, 100.0, 250.0, 500.0};
    spec.trials = 2;
    spec.path_sources = 40;
    spec.dataset_scale = 0.1;
    spec.seed_base = 0xAB3'0000;
  } else if (name == "ablation-jdm") {
    // Hybrid vs pure IE vs pure TE joint-degree estimation, end to end:
    // the estimator variant shapes the target JDM and therefore the
    // restored graph's distances.
    spec.datasets = standard;
    spec.methods = {MethodKind::kProposed};
    spec.estimators = {
        {JointEstimatorMode::kHybrid, 0.025},
        {JointEstimatorMode::kInducedEdgesOnly, 0.025},
        {JointEstimatorMode::kTraversedEdgesOnly, 0.025}};
    spec.trials = 3;
    spec.rcs = {50.0};
    spec.path_sources = 40;
    spec.dataset_scale = 0.15;
    spec.seed_base = 0xAB1'0000;
  } else if (name == "ablation-rewire") {
    // Candidate set E~ \ E' (protect_subgraph = true, the paper) vs all
    // of E~ (false, Gjoka et al.'s choice) inside the proposed pipeline.
    spec.datasets = standard;
    spec.methods = {MethodKind::kProposed};
    spec.protects = {true, false};
    spec.trials = 2;
    spec.rcs = {200.0};
    spec.path_sources = 40;
    spec.dataset_scale = 0.15;
    spec.seed_base = 0xAB2'0000;
  } else if (name == "ablation-batch") {
    // The paper's one-at-a-time schedule (batch 1) vs speculative rounds
    // at two batch sizes, with the parallel Algorithm 5 assembly engine
    // on — the declarative face of bench_parallel_assembly /
    // bench_parallel_rewire. Batch size is an algorithm knob (each value
    // is its own equally valid trajectory); worker counts stay execution
    // knobs overridable from the CLI.
    spec.datasets = registry({"brightkite"});
    spec.methods = {MethodKind::kProposed};
    spec.rewire_batches = {1, 64, 256};
    spec.parallel_assembly = true;
    spec.trials = 2;
    spec.rcs = {100.0};
    spec.path_sources = 40;
    spec.dataset_scale = 0.1;
    spec.seed_base = 0xAB6'0000;
  } else if (name == "ablation-frontier") {
    // Walker-count sweep of Ribeiro & Towsley's frontier crawler through
    // the proposed pipeline: more coupled walkers dilute the per-walker
    // trajectory the clustering estimator's interior term reads.
    spec.datasets = registry({"brightkite"});
    spec.methods = {MethodKind::kProposed};
    spec.crawlers = {CrawlerKind::kFrontier};
    spec.frontier_walkers = {2, 10, 50};
    spec.trials = 2;
    spec.rcs = {50.0};
    spec.path_sources = 40;
    spec.dataset_scale = 0.1;
    spec.seed_base = 0xAB7'0000;
  } else if (name == "ablation-noise") {
    // Robustness sweep of the adversarial oracle: the same protocol under
    // the cooperative oracle, then with each fault family on its own —
    // private/suspended accounts, hidden edges, transient churn, and a
    // hard API-call budget. All six methods run so the cells compare how
    // gracefully each restoration method degrades (the BENCHMARKS.md
    // robustness table).
    spec.datasets = registry({"brightkite"});
    // The API budget is in calls, not nodes: at dataset_scale 0.1 the
    // node budget is ~50, and a walk spends ~65-70 calls reaching it, so
    // a 40-call budget genuinely truncates every crawl.
    spec.noises = {{},
                   {0.2, 0.0, 0.0, 0},
                   {0.0, 0.3, 0.0, 0},
                   {0.0, 0.0, 0.2, 0},
                   {0.0, 0.0, 0.0, 40}};
    spec.trials = 2;
    spec.rcs = {10.0};
    spec.path_sources = 40;
    spec.dataset_scale = 0.1;
    spec.seed_base = 0xAB8'0000;
  } else {
    throw ScenarioError("unknown built-in scenario '" + name + "'");
  }
  return spec;
}

}  // namespace sgr
