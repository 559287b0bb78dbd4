#ifndef SGR_SCENARIO_SPEC_H_
#define SGR_SCENARIO_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "restore/method.h"
#include "util/json.h"

namespace sgr {

/// Error thrown when a scenario document fails validation. Messages name
/// the offending key so a typo in a hand-written scenario.json is
/// diagnosable from the CLI error alone.
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& what)
      : std::runtime_error("scenario: " + what) {}
};

/// Parameters of an ad-hoc synthetic dataset (the alternative to naming a
/// registry dataset from exp/datasets.h). Mirrors the `sgr generate`
/// subcommand's models.
struct GeneratorSpec {
  std::string model = "powerlaw";  ///< powerlaw | ba | er | community | social
  std::size_t nodes = 1000;
  std::size_t edges_per_node = 4;  ///< powerlaw / ba / community / social
  double triad_p = 0.4;            ///< powerlaw / community / social
  double fringe_fraction = 0.4;    ///< social
  std::size_t edges = 0;           ///< er (0 = 4 * nodes)
  std::size_t communities = 4;     ///< community
  std::size_t bridges = 0;         ///< community (0 = nodes / 50 + 1)
  std::uint64_t seed = 1;
};

/// Materializes a GeneratorSpec: builds the model's graph (applying the
/// 0-means-default rules for `edges` and `bridges`) and preprocesses it
/// (simplify + largest connected component), exactly as LoadDataset does
/// for registry datasets. The single model-dispatch implementation shared
/// by the scenario engine and `sgr generate`; throws ScenarioError on an
/// unknown model.
Graph BuildGeneratorGraph(const GeneratorSpec& gen);

/// One dataset of a scenario: either a registry name ("anybeat", ...,
/// "youtube"; see exp/datasets.h) or a labelled generator.
struct ScenarioDataset {
  std::string name;
  std::optional<GeneratorSpec> generator;
};

/// One estimator ablation variant of a scenario: the knobs of
/// EstimatorOptions that are spec-expressible (the walk-type normalizer is
/// derived from the `walk` axis by the runner and is deliberately not a
/// free knob here — the two can never disagree).
struct EstimatorSpec {
  JointEstimatorMode joint_mode = JointEstimatorMode::kHybrid;
  /// Collision-pair lag threshold as a fraction of the walk length
  /// (paper: 0.025). Must be finite and in (0, 1).
  double collision_fraction = 0.025;

  friend bool operator==(const EstimatorSpec& a, const EstimatorSpec& b) {
    return a.joint_mode == b.joint_mode &&
           a.collision_fraction == b.collision_fraction;
  }
};

/// Coordinates of one cell of the expanded scenario matrix — everything
/// that varies between cells besides the dataset. Each field is one axis
/// of the table in spec.cc, which declares the axis once for every layer:
/// document parsing, validation, the spec and cell echoes, expansion
/// (fractions-major through noise-minor, see ExpandKnobs), `sgr diff`'s
/// cell pairing, and the knob labels.
///
/// Adding an axis: a field here, its vector in ScenarioSpec, one row in
/// the spec.cc table, and the line of ToExperimentConfig that applies it.
/// Put the row last, so that specs which leave the new axis at its
/// single default expand to the cells (and seeds) they always did.
struct CellKnobs {
  double fraction = 0.1;
  WalkKind walk = WalkKind::kSimple;
  CrawlerKind crawler = CrawlerKind::kRw;
  EstimatorSpec estimator;
  double rc = 500.0;
  bool protect_subgraph = true;
  /// Proposals per round of the rewiring engine
  /// (RewireToClusteringParallel); 1 is the paper's schedule.
  std::size_t rewire_batch = kDefaultRewireBatch;
  /// Walker count of the frontier crawler (ignored by the others, but
  /// echoed regardless so cells pair canonically).
  std::size_t frontier_walkers = 10;
  /// Crawl-time fault injection (default: the cooperative oracle).
  CrawlNoise noise;
};

/// The knob echo of one report cell: one member per axis, in expansion
/// order ("query_fraction", "walk", ..., "noise"). The noise axis is left
/// out while it is off, so noise-free reports keep their historical bytes.
Json CellKnobsToJson(const CellKnobs& knobs);

/// What the axes of a report cell pair as when the cell does not echo
/// them (reports recorded before the axis existed): the paper-faithful
/// value of each axis, except that rc, rewire_batch and frontier_walkers
/// come from a scalar in the report's `config` echo when it has one (they
/// were scalar spec knobs before they became axes). Without one they are
/// 500, 0 and 10; note 0, not the spec default, for rewire_batch.
CellKnobs PreAxisKnobs(const Json* config = nullptr);

/// Reads the knob echo of a report cell. An axis the cell does not echo,
/// or echoes in an unreadable form, keeps its value from `defaults`.
CellKnobs CellKnobsFromJson(const Json& cell, const CellKnobs& defaults);

/// The knob members of a report cell that CellKnobsFromJson cannot read
/// (a token or member of another build), keyed by their cell key and
/// holding the raw JSON; an empty object when every echoed axis reads.
Json UnreadCellKnobs(const Json& cell);

/// Human-readable knob label: " walk=non-backtracking rc=100 batch=256",
/// one fragment per axis whose value differs from `baseline` (the query
/// fraction is never part of it; callers print it as "@ 10%"). The one
/// label of the engine's progress line, the bench tables and `sgr diff`.
std::string CellKnobsLabel(const CellKnobs& knobs,
                           const CellKnobs& baseline = PreAxisKnobs());

/// Declarative description of one crawl -> restore -> evaluate matrix:
/// datasets x the nine cell axes (CellKnobs) x methods x trials, with
/// the knobs the hand-rolled benches used to take from the environment. Defaults match a
/// default-constructed ExperimentConfig (RC = 500, 10% queried, all six
/// methods, simple random walk, exact path evaluation), so an empty
/// scenario runs the paper's Table III protocol on whatever datasets it
/// names; every new axis defaults to a single paper-faithful value, so
/// pre-existing scenario documents expand to exactly the cells they
/// always did.
struct ScenarioSpec {
  std::string name = "custom";
  std::vector<ScenarioDataset> datasets;
  std::vector<double> fractions = {0.1};
  std::vector<MethodKind> methods = {
      MethodKind::kBfs,        MethodKind::kSnowball,
      MethodKind::kForestFire, MethodKind::kRandomWalk,
      MethodKind::kGjoka,      MethodKind::kProposed};
  std::size_t trials = 3;
  std::size_t threads = 1;        ///< 0 = hardware concurrency
  std::uint64_t seed_base = 0x5EED;
  /// Walk-discipline axis of the shared sample (JSON key "walk": one
  /// token or an array; simple | non-backtracking | metropolis-hastings).
  std::vector<WalkKind> walks = {WalkKind::kSimple};
  /// Crawler axis of the shared sample (JSON key "crawler": one token or
  /// an array; rw | frontier | mhrw | bfs | snowball | ff). Non-walk
  /// crawlers require a method list without gjoka/proposed; non-simple
  /// walks require the rw crawler. frontier/mhrw with the generative
  /// methods are deliberate ablation combinations (their stationary laws
  /// violate the estimators' simple-walk assumptions — running them
  /// measures that bias; see CrawlerKind / WalkKind).
  std::vector<CrawlerKind> crawlers = {CrawlerKind::kRw};
  /// Estimator-ablation axis (JSON key "estimator": one object or an
  /// array of objects with "joint_mode" and "collision_fraction").
  std::vector<EstimatorSpec> estimators = {{}};
  /// Rewiring-coefficient axis (JSON key "rc": one number or an array;
  /// paper: 500).
  std::vector<double> rcs = {500.0};
  /// Rewiring candidate-set axis (JSON key "protect_subgraph": one bool
  /// or an array): true rewires over E~ \ E' (the paper's choice), false
  /// over all of E~ (Gjoka et al.'s choice inside the proposed pipeline).
  std::vector<bool> protects = {true};
  /// Walker-count axis of the frontier crawler (JSON key
  /// "frontier_walkers": one number or an array). Sweeping it with more
  /// than one value requires the crawler axis to be exactly [frontier]:
  /// every other crawler ignores the knob, so its cells would be
  /// duplicated once per walker value.
  std::vector<std::size_t> frontier_walkers = {10};
  /// Rewiring round-size axis (restore/rewirer.h; JSON key
  /// "rewire_batch": one number or an array of values >= 1): proposals
  /// per round of RewireToClusteringParallel, 1 being the paper's
  /// one-at-a-time schedule. An algorithm knob — changing it changes the
  /// (equally valid) rewiring trajectory, so it is a sweepable axis and
  /// every cell echoes its value.
  std::vector<std::size_t> rewire_batches = {kDefaultRewireBatch};
  /// Worker threads of the rewiring engine inside each trial
  /// (0 = hardware concurrency). Execution knob only: reports are
  /// byte-identical for every value (and the CLI can override it per run
  /// without touching the spec).
  std::size_t rewire_threads = 1;
  /// Parallel Algorithm 5 assembly (dk/dk_construct.h). An algorithm
  /// knob like rewire_batch: true routes the generative methods through
  /// ConstructPreservingTargetsParallel's per-class-pair RNG streams —
  /// a different (equally valid) realization of the same targets.
  bool parallel_assembly = false;
  /// Worker threads of the parallel assembly engine inside each trial
  /// (0 = hardware concurrency; only active when `parallel_assembly`).
  /// Execution knob only: reports are byte-identical for every value.
  std::size_t assembly_threads = 1;
  /// Worker threads of the chunked estimator pass inside each trial
  /// (0 = hardware concurrency). Execution knob only: the chunk grid is
  /// fixed by the walk length, so estimates — and therefore reports —
  /// are bit-identical for every value (estimation/estimators.h).
  std::size_t estimator_threads = 1;
  std::size_t path_sources = 0;   ///< 0 = exact all-pairs evaluation
  std::size_t snowball_k = 50;
  double forest_fire_pf = 0.7;
  bool simplify_output = false;
  double dataset_scale = 0.0;     ///< 0 = honor $SGR_DATASET_SCALE / 1.0
  /// Convergence tracking during the rewiring phase (JSON key
  /// "track_properties"): when true, every generative method's rewiring
  /// run records a convergence curve that the report emits as a
  /// deterministic "convergence" block. Observation only — cells are
  /// byte-identical with tracking on or off.
  bool track_properties = false;
  /// Adaptive rewiring stop epsilon (JSON key "stop_epsilon"; requires
  /// `track_properties`): halt rewiring once the tracked L1 clustering
  /// distance is within this value. 0 disables the stop.
  double stop_epsilon = 0.0;
  /// Adversarial-oracle axis (JSON key "noise": one object or an array of
  /// objects with "failure", "hidden_edges", "churn", "api_budget"; see
  /// CrawlNoise). The probabilities are capped at 0.9 at the spec level —
  /// a cell where (almost) every query fails measures nothing; the
  /// degenerate extremes stay reachable through the PerturbedOracle API
  /// directly. Default: one all-off entry, the cooperative oracle, which
  /// keeps pre-existing documents and reports byte-identical.
  std::vector<CrawlNoise> noises = {{}};

  /// Parses and validates a scenario document. Unknown keys, wrong types,
  /// out-of-range values, unknown dataset/method names, and empty
  /// dataset/axis/method lists all throw ScenarioError.
  static ScenarioSpec FromJson(const Json& json);

  /// Serializes the spec back to its document form; FromJson(ToJson(s))
  /// round-trips to an equal document (axes with a single value serialize
  /// as scalars, larger axes as arrays; "fractions" is always an array).
  /// Embedded verbatim in every report so a result file names the matrix
  /// that produced it.
  Json ToJson() const;

  /// Full semantic validation of the spec *values*, independent of how
  /// they were produced: non-empty axes, finite numbers for every numeric
  /// knob (the JSON layer admits Infinity/NaN literals by design, and a
  /// programmatically built spec never passes through FromJson at all),
  /// in-range values, no duplicate axis entries, known generator models,
  /// and the cross-axis rules (non-walk crawlers forbid generative
  /// methods; non-simple walks require the rw crawler; a frontier_walkers
  /// sweep requires the frontier crawler). FromJson calls this after
  /// parsing, and
  /// RunScenario calls it before executing, so an invalid spec can reach
  /// neither ExperimentConfig nor the engine. Throws ScenarioError.
  void Validate() const;

  /// The experiment configuration of one cell of the matrix: this spec's
  /// method list and options at the given axis coordinates. Per-trial
  /// property evaluation is pinned to one thread, so reports are
  /// byte-identical for every engine thread count (the benches'
  /// long-standing determinism contract).
  ExperimentConfig ToExperimentConfig(const CellKnobs& knobs) const;

  /// Enumerates the knob coordinates of the non-dataset axes in cell
  /// order: cell i's coordinates are the mixed-radix digits of i over
  /// fractions, walks, crawlers, estimators, rcs, protects,
  /// rewire_batches, frontier_walkers, noises, most significant first.
  /// The newest axes sit innermost so single-valued specs expand to
  /// exactly the cell list — and therefore the seed schedule — they
  /// always did. RunScenario visits datasets-major over this list.
  std::vector<CellKnobs> ExpandKnobs() const;
};

/// Maps a scenario document's method token (bfs | snowball | ff | rw |
/// gjoka | proposed) to its MethodKind; throws ScenarioError on an
/// unknown token. MethodToken inverts it.
MethodKind MethodKindFromToken(const std::string& token);
std::string MethodToken(MethodKind kind);

/// Token maps of the new axes, same contract as MethodKindFromToken:
///   walk      simple | non-backtracking | metropolis-hastings
///   crawler   rw | frontier | mhrw | bfs | snowball | ff
///   joint     hybrid | ie | te
WalkKind WalkKindFromToken(const std::string& token);
std::string WalkToken(WalkKind kind);
CrawlerKind CrawlerKindFromToken(const std::string& token);
std::string CrawlerToken(CrawlerKind kind);
JointEstimatorMode JointModeFromToken(const std::string& token);
std::string JointModeToken(JointEstimatorMode mode);

/// Built-in named scenarios, runnable as `sgr run <name>`:
///   tables-smoke     2 small dataset stand-ins, CI-sized (seconds)
///   table2           per-property distances, Slashdot/Gowalla/Livemocha
///   table3           avg +- SD on the six standard datasets
///   table4-time      generation-time protocol (RC = 500)
///   table5-youtube   the largest stand-in at 1% queried
///   fig3-sweep       query-fraction sweep, 2%-10%
///   ablation-walk    simple vs non-backtracking walk (Section II)
///   ablation-rc      rewiring-budget sweep RC in {0..500} (Section IV-E)
///   ablation-jdm     hybrid vs IE-only vs TE-only estimator (Sec. III-E)
///   ablation-rewire  protected vs all-edges rewiring set (Section IV-E)
///   ablation-batch   rewiring round-size sweep, the paper's batch 1 vs
///                    speculative rounds, through the parallel assembly
///   ablation-frontier  frontier walker-count sweep (frontier_walkers)
///   ablation-noise   adversarial-oracle sweep: cooperative vs private
///                    accounts vs hidden edges vs churn (noise axis)
std::vector<std::string> BuiltinScenarioNames();
bool IsBuiltinScenario(const std::string& name);
ScenarioSpec BuiltinScenario(const std::string& name);

/// One-line description of a built-in (for `sgr scenarios list`).
std::string BuiltinScenarioDescription(const std::string& name);

}  // namespace sgr

#endif  // SGR_SCENARIO_SPEC_H_
