#include "scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

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
  return gen;
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
    datasets.push_back(std::move(dataset));
  }
  return datasets;
}

void RequireFinite(double value, const std::string& key) {
  if (!std::isfinite(value)) {
    throw ScenarioError("'" + key + "' must be finite");
  }
}

void RequireInRange(bool in_range, const std::string& key,
                    const char* range) {
  if (!in_range) throw ScenarioError("'" + key + "' must be " + range);
}

std::size_t ParseCount(const Json& value, const std::string& key) {
  return static_cast<std::size_t>(RequireUint(value, key));
}

Json EmitNumber(const double& value) { return Json::Number(value); }

Json EmitCount(const std::size_t& value) {
  return Json::Number(static_cast<double>(value));
}

Json EmitEstimator(const EstimatorSpec& estimator) {
  Json json = Json::Object();
  json.Set("joint_mode", Json::String(JointModeToken(estimator.joint_mode)));
  json.Set("collision_fraction", Json::Number(estimator.collision_fraction));
  return json;
}

Json EmitNoise(const CrawlNoise& noise) {
  Json json = Json::Object();
  json.Set("failure", Json::Number(noise.failure));
  json.Set("hidden_edges", Json::Number(noise.hidden_edges));
  json.Set("churn", Json::Number(noise.churn));
  json.Set("api_budget", Json::Number(static_cast<double>(noise.api_budget)));
  return json;
}

void CheckEstimator(const EstimatorSpec& estimator, const std::string& key) {
  const std::string member = key + ".collision_fraction";
  RequireFinite(estimator.collision_fraction, member);
  RequireInRange(estimator.collision_fraction > 0.0 &&
                     estimator.collision_fraction < 1.0,
                 member, "in (0, 1)");
}

void CheckNoise(const CrawlNoise& noise, const std::string& key) {
  // The oracle itself accepts [0, 1]; the spec stops at 0.9 because a
  // cell where (almost) every query fails measures nothing.
  for (const auto& [name, p] : {std::pair<const char*, double>{
                                    "failure", noise.failure},
                                {"hidden_edges", noise.hidden_edges},
                                {"churn", noise.churn}}) {
    RequireFinite(p, key + "." + name);
    RequireInRange(p >= 0.0 && p <= 0.9, key + "." + name, "in [0, 0.9]");
  }
}

void LabelEstimator(const EstimatorSpec& estimator,
                    const EstimatorSpec& baseline, std::ostream& out) {
  if (estimator.joint_mode != baseline.joint_mode) {
    out << " joint=" << JointModeToken(estimator.joint_mode);
  }
  if (estimator.collision_fraction != baseline.collision_fraction) {
    out << " collision=" << estimator.collision_fraction;
  }
}

void LabelNoise(const CrawlNoise& noise, const CrawlNoise& baseline,
                std::ostream& out) {
  if (noise.failure != baseline.failure) out << " fail=" << noise.failure;
  if (noise.hidden_edges != baseline.hidden_edges) {
    out << " hidden=" << noise.hidden_edges;
  }
  if (noise.churn != baseline.churn) out << " churn=" << noise.churn;
  if (noise.api_budget != baseline.api_budget) {
    out << " api_budget=" << noise.api_budget;
  }
}

/// The special cases of an axis row (most rows have none).
enum AxisFlags : unsigned {
  kPlainAxis = 0,
  /// A scalar under the key in a report's config echo overrides
  /// pre_axis: the axis was a scalar spec knob before it became an axis.
  kPreAxisFromConfig = 1u << 0,
  /// The spec document holds the axis as an array only, echoed right
  /// after "datasets" (the fractions axis predates the scalar form).
  kArrayOnly = 1u << 1,
  /// Echoes leave the axis out while it holds only pre_axis, so reports
  /// from before the axis existed keep their bytes.
  kOmitDefault = 1u << 2,
  /// The spec echo writes this axis after the next one (rewire_batch
  /// joined the echo after frontier_walkers, but expands outside it).
  kEchoAfterNext = 1u << 3,
};

/// Declaration of one cell axis of the scenario matrix; `T` is the type
/// of one axis value. Every layer that handles an axis reads its row
/// instead of naming the axis.
template <typename T>
struct AxisRow {
  const char* key;       ///< spec document key
  const char* cell_key;  ///< report cell key
  std::vector<T> ScenarioSpec::*values;
  T CellKnobs::*knob;
  T (*parse)(const Json& value, const std::string& key);
  Json (*emit)(const T& value);
  /// Range check of one value; throws ScenarioError naming `key`. Null
  /// when every parseable value is valid.
  void (*check)(const T& value, const std::string& key);
  /// Writes the label fragment of `value` if it differs from `baseline`.
  /// Null for an axis that callers label themselves (the fraction).
  void (*label)(const T& value, const T& baseline, std::ostream& out);
  /// The value a report cell that does not echo this axis pairs as.
  T pre_axis;
  unsigned flags;  ///< AxisFlags

  bool Has(AxisFlags flag) const { return (flags & flag) != 0; }
};

/// The nine cell axes in expansion order: ExpandKnobs makes the first the
/// most significant digit of the cell index, and report cells echo the
/// axes in this order.
const auto& Axes() {
  static const auto axes = std::make_tuple(
      AxisRow<double>{
          "fractions", "query_fraction", &ScenarioSpec::fractions,
          &CellKnobs::fraction, RequireNumber, EmitNumber,
          [](const double& fraction, const std::string& key) {
            RequireFinite(fraction, key);
            RequireInRange(fraction > 0.0 && fraction <= 1.0, key,
                           "in (0, 1]");
          },
          nullptr, 0.0, kArrayOnly},
      AxisRow<WalkKind>{
          "walk", "walk", &ScenarioSpec::walks, &CellKnobs::walk,
          [](const Json& value, const std::string& key) {
            return WalkKindFromToken(RequireString(value, key));
          },
          [](const WalkKind& walk) { return Json::String(WalkToken(walk)); },
          nullptr,
          [](const WalkKind& walk, const WalkKind& baseline,
             std::ostream& out) {
            if (walk != baseline) out << " walk=" << WalkToken(walk);
          },
          WalkKind::kSimple, kPlainAxis},
      AxisRow<CrawlerKind>{
          "crawler", "crawler", &ScenarioSpec::crawlers, &CellKnobs::crawler,
          [](const Json& value, const std::string& key) {
            return CrawlerKindFromToken(RequireString(value, key));
          },
          [](const CrawlerKind& crawler) {
            return Json::String(CrawlerToken(crawler));
          },
          nullptr,
          [](const CrawlerKind& crawler, const CrawlerKind& baseline,
             std::ostream& out) {
            if (crawler != baseline) {
              out << " crawler=" << CrawlerToken(crawler);
            }
          },
          CrawlerKind::kRw, kPlainAxis},
      AxisRow<EstimatorSpec>{
          "estimator", "estimator", &ScenarioSpec::estimators,
          &CellKnobs::estimator, ParseEstimator, EmitEstimator,
          CheckEstimator, LabelEstimator, EstimatorSpec{}, kPlainAxis},
      AxisRow<double>{
          "rc", "rc", &ScenarioSpec::rcs, &CellKnobs::rc, RequireNumber,
          EmitNumber,
          [](const double& rc, const std::string& key) {
            RequireFinite(rc, key);
            RequireInRange(rc >= 0.0, key, ">= 0");
          },
          [](const double& rc, const double& baseline, std::ostream& out) {
            if (rc != baseline) out << " rc=" << rc;
          },
          500.0, kPreAxisFromConfig},
      AxisRow<bool>{
          "protect_subgraph", "protect_subgraph", &ScenarioSpec::protects,
          &CellKnobs::protect_subgraph, RequireBool,
          [](const bool& protect) { return Json::Bool(protect); }, nullptr,
          [](const bool& protect, const bool& baseline, std::ostream& out) {
            if (protect != baseline) {
              out << (protect ? " protected" : " unprotected");
            }
          },
          true, kPlainAxis},
      AxisRow<std::size_t>{
          "rewire_batch", "rewire_batch", &ScenarioSpec::rewire_batches,
          &CellKnobs::rewire_batch, ParseCount, EmitCount,
          [](const std::size_t& batch, const std::string& key) {
            RequireInRange(batch >= 1, key,
                           ">= 1 (1 is the paper's schedule)");
          },
          [](const std::size_t& batch, const std::size_t& baseline,
             std::ostream& out) {
            if (batch != baseline) out << " batch=" << batch;
          },
          0, kPreAxisFromConfig | kEchoAfterNext},
      AxisRow<std::size_t>{
          "frontier_walkers", "frontier_walkers",
          &ScenarioSpec::frontier_walkers, &CellKnobs::frontier_walkers,
          ParseCount, EmitCount,
          [](const std::size_t& walkers, const std::string& key) {
            RequireInRange(walkers >= 1, key, ">= 1");
          },
          [](const std::size_t& walkers, const std::size_t& baseline,
             std::ostream& out) {
            if (walkers != baseline) out << " walkers=" << walkers;
          },
          10, kPreAxisFromConfig},
      AxisRow<CrawlNoise>{
          "noise", "noise", &ScenarioSpec::noises, &CellKnobs::noise,
          ParseNoise, EmitNoise, CheckNoise, LabelNoise, CrawlNoise{},
          kOmitDefault});
  return axes;
}

template <typename Visit>
void ForEachAxis(Visit&& visit) {
  std::apply([&](const auto&... axis) { (visit(axis), ...); }, Axes());
}

/// Reads one value of `axis` leniently (report cells and config echoes
/// written by other versions): false when `json` is unreadable.
template <typename T>
bool TryParse(const AxisRow<T>& axis, const Json& json, T* value) {
  try {
    *value = axis.parse(json, axis.key);
    return true;
  } catch (const ScenarioError&) {
    return false;
  }
}

/// The spec echo of one axis: a scalar for one value, else an array.
template <typename T>
Json EmitAxis(const AxisRow<T>& axis, const std::vector<T>& values) {
  if (values.size() == 1 && !axis.Has(kArrayOnly)) {
    return axis.emit(values.front());
  }
  Json array = Json::Array();
  for (const T& value : values) array.Push(axis.emit(value));
  return array;
}

/// Parses `value` into the axis whose spec key is `key`; false when no
/// axis has that key.
bool ParseAxis(const std::string& key, const Json& value,
               ScenarioSpec* spec) {
  bool found = false;
  ForEachAxis([&](const auto& axis) {
    if (key != axis.key) return;
    found = true;
    auto& values = spec->*axis.values;
    values.clear();
    if (value.IsArray()) {
      for (const Json& item : value.Items()) {
        values.push_back(axis.parse(item, key + "[]"));
      }
    } else if (axis.Has(kArrayOnly)) {
      throw ScenarioError("'" + key + "' must be an array");
    } else {
      values.push_back(axis.parse(value, key));
    }
  });
  return found;
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
    } else if (!ParseAxis(key, value, &spec)) {
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
        if (gen.model != "powerlaw" && gen.model != "ba" &&
            gen.model != "er" && gen.model != "community" &&
            gen.model != "social") {
          throw ScenarioError("unknown generator model '" + gen.model +
                              "' (powerlaw|ba|er|community|social)");
        }
        RequireFinite(gen.triad_p, "datasets[].triad_p");
        RequireFinite(gen.fringe_fraction, "datasets[].fringe_fraction");
        if (gen.nodes < 10) {
          throw ScenarioError("'datasets[].nodes' must be >= 10");
        }
        RequireInRange(gen.triad_p >= 0.0 && gen.triad_p <= 1.0,
                       "datasets[].triad_p", "in [0, 1]");
        RequireInRange(
            gen.fringe_fraction >= 0.0 && gen.fringe_fraction < 1.0,
            "datasets[].fringe_fraction", "in [0, 1)");
      }
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

  ForEachAxis([this](const auto& axis) {
    const auto& values = this->*axis.values;
    const std::string key = axis.key;
    if (values.empty()) {
      throw ScenarioError("'" + key + "' must contain at least one value");
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (axis.check != nullptr) axis.check(values[i], key);
      for (std::size_t j = 0; j < i; ++j) {
        if (values[j] == values[i]) {
          throw ScenarioError("duplicate " + key + " value " +
                              axis.emit(values[i]).Dump(0));
        }
      }
    }
  });

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
  if (frontier_walkers.size() > 1 &&
      !(crawlers.size() == 1 && crawlers[0] == CrawlerKind::kFrontier)) {
    throw ScenarioError(
        "a 'frontier_walkers' sweep requires the crawler axis to be "
        "exactly [\"frontier\"] (every other crawler ignores the knob, so "
        "its cells would be duplicated once per walker value)");
  }

  if (snowball_k == 0) throw ScenarioError("'snowball_k' must be >= 1");
  RequireFinite(forest_fire_pf, "forest_fire_pf");
  RequireInRange(forest_fire_pf > 0.0 && forest_fire_pf < 1.0,
                 "forest_fire_pf", "in (0, 1)");
  RequireFinite(dataset_scale, "dataset_scale");
  RequireInRange(dataset_scale >= 0.0, "dataset_scale", ">= 0");
  RequireFinite(stop_epsilon, "stop_epsilon");
  RequireInRange(stop_epsilon >= 0.0, "stop_epsilon", ">= 0");
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
  // Reserve the slot of the array-only fractions axis ahead of "methods";
  // the axis loop below fills it in place.
  ForEachAxis([&json](const auto& axis) {
    if (axis.Has(kArrayOnly)) json.Set(axis.key, Json());
  });
  Json method_array = Json::Array();
  for (MethodKind kind : methods) {
    method_array.Push(Json::String(MethodToken(kind)));
  }
  json.Set("methods", std::move(method_array));
  json.Set("trials", Json::Number(static_cast<double>(trials)));
  json.Set("threads", Json::Number(static_cast<double>(threads)));
  json.Set("seed_base", Json::Number(static_cast<double>(seed_base)));
  // One member per axis: a scalar for one value, else an array, mirroring
  // the two accepted document forms.
  const char* held_key = nullptr;
  Json held;
  ForEachAxis([&](const auto& axis) {
    const auto& values = this->*axis.values;
    if (axis.Has(kEchoAfterNext)) {
      held_key = axis.key;
      held = EmitAxis(axis, values);
      return;
    }
    if (!(axis.Has(kOmitDefault) && values.size() == 1 &&
          values.front() == axis.pre_axis)) {
      json.Set(axis.key, EmitAxis(axis, values));
    }
    if (held_key != nullptr) {
      json.Set(held_key, std::move(held));
      held_key = nullptr;
    }
  });
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

std::vector<CellKnobs> ScenarioSpec::ExpandKnobs() const {
  std::size_t cells = 1;
  ForEachAxis([&](const auto& axis) { cells *= (this->*axis.values).size(); });
  std::vector<CellKnobs> expanded(cells);
  if (cells == 0) return expanded;
  // Mixed radix: an axis's coordinate in cell c is digit (c / stride) %
  // size, where stride is the product of the sizes of the later axes.
  std::size_t stride = cells;
  ForEachAxis([&](const auto& axis) {
    const auto& values = this->*axis.values;
    stride /= values.size();
    for (std::size_t c = 0; c < cells; ++c) {
      expanded[c].*axis.knob = values[c / stride % values.size()];
    }
  });
  return expanded;
}

Json CellKnobsToJson(const CellKnobs& knobs) {
  Json json = Json::Object();
  ForEachAxis([&](const auto& axis) {
    const auto& value = knobs.*axis.knob;
    if (axis.Has(kOmitDefault) && value == axis.pre_axis) return;
    json.Set(axis.cell_key, axis.emit(value));
  });
  return json;
}

CellKnobs PreAxisKnobs(const Json* config) {
  CellKnobs knobs;
  ForEachAxis([&](const auto& axis) {
    knobs.*axis.knob = axis.pre_axis;
    if (!axis.Has(kPreAxisFromConfig) || config == nullptr ||
        !config->IsObject()) {
      return;
    }
    // A config echo holding an array means the knob was already an axis;
    // such reports echo it per cell.
    const Json* scalar = config->Find(axis.key);
    if (scalar != nullptr && !scalar->IsArray()) {
      TryParse(axis, *scalar, &(knobs.*axis.knob));
    }
  });
  return knobs;
}

CellKnobs CellKnobsFromJson(const Json& cell, const CellKnobs& defaults) {
  CellKnobs knobs = defaults;
  ForEachAxis([&](const auto& axis) {
    if (const Json* member = cell.Find(axis.cell_key)) {
      TryParse(axis, *member, &(knobs.*axis.knob));
    }
  });
  return knobs;
}

Json UnreadCellKnobs(const Json& cell) {
  Json unread = Json::Object();
  ForEachAxis([&](const auto& axis) {
    const Json* member = cell.Find(axis.cell_key);
    auto value = axis.pre_axis;
    if (member != nullptr && !TryParse(axis, *member, &value)) {
      unread.Set(axis.cell_key, *member);
    }
  });
  return unread;
}

std::string CellKnobsLabel(const CellKnobs& knobs,
                           const CellKnobs& baseline) {
  std::ostringstream label;
  ForEachAxis([&](const auto& axis) {
    if (axis.label != nullptr) {
      axis.label(knobs.*axis.knob, baseline.*axis.knob, label);
    }
  });
  return label.str();
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
