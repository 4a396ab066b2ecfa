#ifndef EQIMPACT_SIM_SCENARIO_H_
#define EQIMPACT_SIM_SCENARIO_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/serial.h"
#include "markov/affine_ifs.h"
#include "stats/adr_accumulator.h"

namespace eqimpact {
namespace runtime {
class ThreadPool;
}  // namespace runtime

namespace sim {

/// Consumer of a trial's engine-level checkpoints: invoked after each
/// completed simulation step with the number of completed steps and the
/// engine's versioned opaque state blob (e.g. the credit loop's yearly
/// snapshot). The blob reference is valid only for the call.
using TrialCheckpointSink = std::function<void(
    size_t steps_completed, const std::vector<uint8_t>& state)>;

/// Everything one trial of a scenario needs from the experiment driver.
struct TrialContext {
  /// Slot index of this trial in [0, num_trials); results keyed by it
  /// are deterministic regardless of dispatch order.
  size_t trial_index = 0;
  /// Per-trial seed, derived as SeedSequence(master_seed).Seed(index) —
  /// the library-wide DeriveSeed convention. All of the trial's
  /// randomness must be a pure function of this seed.
  uint64_t trial_seed = 0;
  /// Within-trial worker budget. 0 = scenario default (whatever its
  /// options say); scenarios without inner parallelism ignore it.
  size_t num_threads = 0;
  /// Optional caller-owned persistent pool for within-trial fan-out.
  /// Null under parallel trial dispatch (trials may not share a pool);
  /// RunExperiment provides one when trial dispatch is sequential and
  /// trial_threads > 1, so a scenario's inner ParallelFor calls can
  /// reuse it instead of spawning per-call pools.
  runtime::ThreadPool* pool = nullptr;
  /// When set (only for scenarios with a CheckpointFingerprint), the
  /// trial must hand its engine's per-step snapshots to this sink so the
  /// driver can persist a resumable experiment state.
  TrialCheckpointSink checkpoint_sink;
  /// When non-null, the trial must resume its engine from this
  /// previously sunk snapshot, which CheckEngineState has accepted for
  /// this context, instead of starting fresh; the finished trial must be
  /// byte-identical to an uninterrupted run. Not owned.
  const std::vector<uint8_t>* resume_state = nullptr;
};

/// Closed-form surrogate of a scenario's per-subject impact dynamics as
/// a 1-d affine IFS on [lo, hi] — the object the paper's Section VI
/// certificates are stated for. Scenarios that expose one unlock the
/// simulation-free spectral ergodicity certificate path
/// (sim::CertifyScenario -> core::CertifyIfsSpectral): invariant-measure
/// existence, spectral gap and a mixing-time bound computed on a sparse
/// Ulam discretisation of this model, never by running trials. The model
/// is a *documented surrogate* of the simulated loop (each override says
/// exactly what it abstracts), not a bit-level twin of RunTrial.
struct ScenarioDynamics {
  /// Initialised to the identity map (AffineIfs has no empty state);
  /// every DynamicsModel override assigns the real surrogate.
  markov::AffineIfs ifs =
      markov::AffineIfs({markov::AffineMap::Scalar(1.0, 0.0)}, {1.0});
  double lo = 0.0;
  double hi = 1.0;
  /// What the surrogate models and what it abstracts away.
  std::string description;
};

/// Generic per-trial record every scenario produces.
struct TrialOutcome {
  /// Group-level impact series m_g(k): group_impact[g][k], shape
  /// num_groups x num_steps — the scenario's analogue of the credit
  /// loop's per-race ADR curves. Aggregated across trials into the
  /// experiment's mean +/- std envelopes (the paper's Figure 3 form).
  std::vector<std::vector<double>> group_impact;
  /// Scalar trial metrics, aligned with Scenario::MetricNames() (e.g.
  /// the market's final match-rate Gini). Aggregated across trials into
  /// per-metric mean/std.
  std::vector<double> metrics;
};

/// One closed-loop instantiation of the paper's Figure 1, pluggable into
/// the generic experiment/sweep drivers: the scenario owns the loop's
/// configuration, knows its group structure (scenario-defined labels —
/// races, skill classes, initial-condition classes, ...), and runs one
/// trial per call, streaming per-(group, step) impact cross-sections
/// into the driver-owned stats::AdrAccumulator.
///
/// Contract for RunTrial:
///  * Determinism — the trial must be a pure function of
///    (configuration, context.trial_seed); never of thread count,
///    dispatch order, or wall clock. Derive all randomness from
///    trial_seed (see runtime::SeedSequence).
///  * Concurrency — the driver may invoke RunTrial for *different*
///    trial indices concurrently. Mutations of scenario state must be
///    confined to slots owned by context.trial_index (preallocate in
///    BeginExperiment).
///  * Streaming — every impact observation goes through `impacts`
///    (one accumulator per trial, merged by the driver in trial order),
///    so a trial's memory stays bounded in its cohort size.
///
/// Shape queries (GroupLabels, StepLabels, MetricNames, impact range)
/// reflect the *current* parameters and are only consulted between
/// experiments, so SetParameter may change them (e.g. the market's
/// "rounds" changes the step count).
class Scenario {
 public:
  virtual ~Scenario();

  /// Registry key / display name, e.g. "credit".
  virtual std::string name() const = 0;

  /// Labels of the scenario's impact groups; the size defines the group
  /// count and indexes TrialOutcome::group_impact and the accumulator.
  virtual std::vector<std::string> GroupLabels() const = 0;

  /// Labels of the scenario's steps (calendar years, round indices, ...);
  /// the size defines the step count.
  virtual std::vector<std::string> StepLabels() const = 0;

  /// Names of the scalar metrics every trial emits, aligned with
  /// TrialOutcome::metrics. Empty by default.
  virtual std::vector<std::string> MetricNames() const;

  /// Value range of the streamed impact observations (accumulator
  /// binning range). Defaults to [0, 1] — ADRs, match rates and action
  /// averages are all fractions.
  virtual double impact_lo() const;
  virtual double impact_hi() const;

  /// Sets the named sweepable parameter; returns false for an unknown
  /// name (the base implementation knows none). Values arrive as
  /// doubles; integral parameters truncate.
  virtual bool SetParameter(const std::string& name, double value);

  /// Names SetParameter accepts, for CLI/registry introspection.
  virtual std::vector<std::string> ParameterNames() const;

  /// Called by the driver once before a batch of RunTrial calls, with
  /// the trial count — the hook where scenarios preallocate per-trial
  /// slots. Default no-op.
  virtual void BeginExperiment(size_t num_trials);

  /// Closed-form affine-IFS surrogate of this scenario's per-subject
  /// impact dynamics under the *current* parameters, for the ergodicity
  /// certificate path; std::nullopt (the default) when the scenario has
  /// no meaningful 1-d surrogate.
  virtual std::optional<ScenarioDynamics> DynamicsModel() const;

  /// Checkpoint support. A scenario whose RunTrial honours
  /// TrialContext::checkpoint_sink / resume_state (per-step engine
  /// snapshots with byte-identical resume) returns a fingerprint of its
  /// current configuration: every parameter that shapes a trial's
  /// output, and nothing that does not (thread counts). An experiment
  /// snapshot binds to it, so a job resumed under another configuration
  /// is refused. std::nullopt (the default) means no checkpoint support;
  /// the experiment driver refuses to checkpoint such a scenario.
  virtual std::optional<uint64_t> CheckpointFingerprint() const;

  /// Decodes `state`, an engine snapshot RunTrial sank, as the resume
  /// state of the trial `context` describes, without running anything:
  /// kOk iff RunTrial can resume from it, else the typed reason. Must
  /// never abort. The default (no checkpoint support) refuses every
  /// blob with kShape.
  virtual base::SnapshotStatus CheckEngineState(
      const TrialContext& context, const std::vector<uint8_t>& state) const;

  /// Runs one trial. `impacts` is a driver-owned accumulator shaped
  /// (num_groups, num_steps, bins) over [impact_lo, impact_hi]; the
  /// trial streams its per-step cross-sections into it.
  virtual TrialOutcome RunTrial(const TrialContext& context,
                                stats::AdrAccumulator* impacts) = 0;
};

/// Builds one scenario instance per use site (the registry's entry
/// type; sweeps call it once per grid point, since sweep points mutate
/// scenario parameters and must start from a fresh instance).
using ScenarioFactory = std::function<std::unique_ptr<Scenario>()>;

/// Largest accepted value for integral (count-like) scenario
/// parameters: comfortably inside the range where the static_cast to
/// size_t is defined and exact, so SetParameter guards can reject
/// anything beyond it instead of invoking undefined behavior.
inline constexpr double kMaxCountParameter = 1e15;

/// Shared SetParameter range guard: true iff `value` is a finite
/// double inside [lo, hi]. NaN and infinities fail.
bool ParameterInRange(double value, double lo, double hi);

/// Shared SetParameter guard for count-like parameters: true iff
/// `value` is finite and in [1, kMaxCountParameter], i.e. safely
/// castable to a positive size_t.
bool CountParameterInRange(double value);

}  // namespace sim
}  // namespace eqimpact

#endif  // EQIMPACT_SIM_SCENARIO_H_
