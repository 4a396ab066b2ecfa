#ifndef EQIMPACT_SIM_EXPERIMENT_H_
#define EQIMPACT_SIM_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/fnv1a.h"
#include "base/serial.h"
#include "sim/scenario.h"
#include "stats/adr_accumulator.h"
#include "stats/aggregate.h"
#include "stats/running_stats.h"

namespace eqimpact {
namespace sim {

struct ExperimentSnapshot;

/// Configuration of a generic multi-trial experiment over any Scenario.
struct ExperimentOptions {
  /// Independent trials (the paper's "five trials ... each ... a new
  /// batch of 1000 users" pattern, scenario-agnostic).
  size_t num_trials = 5;
  /// Trial t runs with seed runtime::SeedSequence(master_seed).Seed(t).
  uint64_t master_seed = 42;
  /// Worker threads for trial dispatch. 0 = hardware concurrency,
  /// 1 = sequential. Trials are independent and write into preallocated
  /// slots, so the result is bitwise-identical at every thread count.
  size_t num_threads = 0;
  /// Within-trial worker budget handed to each trial's TrialContext.
  /// 0 = scenario default.
  size_t trial_threads = 0;
  /// Histogram resolution of the streaming pooled-impact accumulator.
  size_t impact_bins = 64;
  /// When non-empty, the experiment checkpoints to this file: after
  /// every completed simulation step of the in-flight trial (and after
  /// every completed trial) the driver atomically rewrites a framed
  /// snapshot ("EQXP", see base::OpenFrame) — completed trial outcomes
  /// + accumulators, plus the partial trial's accumulator and engine
  /// blob — via a unique temp file + fsync + rename, so a SIGKILL at any
  /// instant leaves a valid snapshot on disk. Requires a scenario with a
  /// CheckpointFingerprint (CHECK-enforced) and forces sequential trial
  /// dispatch (checkpoints linearize trial progress; trial_threads
  /// within-trial parallelism is unaffected). Checkpointing never moves
  /// a bit of output. Check the path with CheckCheckpointWritable first:
  /// a write that fails mid-run aborts.
  std::string checkpoint_path;
  /// When non-null, continue from this snapshot, which
  /// ReadExperimentSnapshot (or DecodeExperimentSnapshot) produced for
  /// the same scenario configuration and options: its completed trials
  /// are taken as they are and its in-flight trial resumes from its
  /// engine blob. A resumed experiment — from any year of any trial,
  /// killed or not — produces a result byte-identical to an
  /// uninterrupted run. Not owned; must outlive the call.
  const ExperimentSnapshot* resume = nullptr;
  /// Optional progress observer, invoked once per completed trial with
  /// the trial's slot index, its outcome, and the count of trials
  /// completed so far (monotone 1..num_trials). Under parallel trial
  /// dispatch the calls arrive in *completion* order from worker
  /// threads, serialized by the driver (at most one call at a time), so
  /// the observer needs no locking of its own; trial_index identifies
  /// the slot regardless of order. Observation never affects the
  /// result: output stays bitwise-identical with or without it. The
  /// experiment service streams per-trial events through this hook.
  std::function<void(size_t trial_index, const TrialOutcome& outcome,
                     size_t completed, size_t total)>
      on_trial_complete;
};

/// Scalar equal-impact diagnostics of one experiment, evaluated at the
/// final step (where the time averages have had the longest to
/// converge — or fail to).
struct EqualImpactSummary {
  /// Largest pairwise gap between the per-group mean impacts at the
  /// final step (across-trial envelope means): 0 under equal impact
  /// across groups.
  double group_gap = 0.0;
  /// Standard deviation of the pooled per-unit impact distribution at
  /// the final step, over all groups and trials: the within- plus
  /// across-group dispersion that unique ergodicity drives to the
  /// across-trial noise floor.
  double pooled_std = 0.0;
  /// Pooled mean impact at the final step.
  double pooled_mean = 0.0;
};

/// Result of RunExperiment.
struct ExperimentResult {
  /// Scenario::name() of the scenario that ran.
  std::string scenario;
  /// Scenario-defined group/step labels, index-aligned with every
  /// group- and step-indexed series below.
  std::vector<std::string> group_labels;
  std::vector<std::string> step_labels;
  /// Per-trial generic records, indexed by trial.
  std::vector<TrialOutcome> trials;
  /// Per-group mean +/- std envelope of the group impact series across
  /// trials (the paper's Figure 3 form), indexed by group.
  std::vector<stats::SeriesEnvelope> group_envelopes;
  /// The pooled per-unit impact distribution, streamed per (group,
  /// step) into moments + histograms; accumulated per trial and merged
  /// in trial order, so it is bitwise-identical at every thread count.
  stats::AdrAccumulator pooled_impact;
  /// Scenario metric names and their across-trial aggregates, aligned.
  std::vector<std::string> metric_names;
  std::vector<stats::RunningStats> metric_stats;
  /// Final-step equal-impact diagnostics.
  EqualImpactSummary summary;
};

/// A decoded experiment snapshot: the value a resumed experiment
/// consumes (ExperimentOptions::resume). Empty = start fresh.
struct ExperimentSnapshot {
  /// Outcomes and impact accumulators of the completed trials
  /// [0, trials.size()).
  std::vector<TrialOutcome> trials;
  std::vector<stats::AdrAccumulator> impacts;
  /// The in-flight trial, index trials.size(): its accumulator and its
  /// engine blob, which Scenario::CheckEngineState has accepted. Empty
  /// when no trial was in flight.
  stats::AdrAccumulator partial_impact;
  std::vector<uint8_t> partial_state;
};

/// Decodes a snapshot file's bytes for `scenario` under `options`, all
/// of it, the in-flight trial's engine blob included (through
/// Scenario::CheckEngineState). kOk fills `snapshot`; anything else is
/// the typed reason: the frame's (base::OpenFrame, bound by a
/// fingerprint of the scenario, its configuration, the trial count,
/// seed and bins, and the impact shape — kFingerprint for a scenario
/// without checkpoint support) or kShape for a body RunExperiment could
/// not have written, or one whose cells hold more than 2^53 observations
/// summed over its trials (so no count overflows on resume). Never
/// aborts, and never allocates more than `bytes.size()` beyond the
/// trials' own cohort-sized state.
base::SnapshotStatus DecodeExperimentSnapshot(
    const std::vector<uint8_t>& bytes, const Scenario& scenario,
    const ExperimentOptions& options, ExperimentSnapshot* snapshot);

/// Reads the snapshot file at `path` and decodes it, before anything
/// runs. A missing file is kOk with an empty snapshot (start fresh; a
/// note goes to stderr), anything but a readable regular file is
/// kUnreadable, and the rest is DecodeExperimentSnapshot's. A zero-byte
/// file is kTruncated.
base::SnapshotStatus ReadExperimentSnapshot(const std::string& path,
                                            const Scenario& scenario,
                                            const ExperimentOptions& options,
                                            ExperimentSnapshot* snapshot);

/// kOk iff a checkpoint can be written at `path`: `path` is not a
/// directory or other non-regular file, and its directory accepts a
/// temp file (created and removed again). kUnwritable otherwise.
base::SnapshotStatus CheckCheckpointWritable(const std::string& path);

/// Runs `options.num_trials` independent trials of `scenario` and
/// aggregates: trial-parallel through the runtime layer, streaming by
/// default (per-trial accumulators merged in trial order), and
/// bitwise-deterministic in (scenario configuration, master_seed) at
/// every thread count. The scenario outlives the call and may be reused
/// for further experiments.
ExperimentResult RunExperiment(Scenario* scenario,
                               const ExperimentOptions& options);

/// Mixes every (step, group) accumulator cell — count, mean, variance,
/// bin counts — into `digest` in slot order. The shared digest body of
/// ExperimentDigest and the pins of tests/golden_test.cc; slot order is
/// part of the determinism contract.
void MixAccumulator(base::Fnv1a* digest, const stats::AdrAccumulator& impact);

/// Order-dependent FNV-1a digest over the experiment's aggregates
/// (group envelopes, per-trial group impacts and metrics, every pooled
/// accumulator cell). Equal digests <=> bitwise-equal results; used by
/// the determinism and golden tests, perfbench and the sweep driver.
uint64_t ExperimentDigest(const ExperimentResult& result);

}  // namespace sim
}  // namespace eqimpact

#endif  // EQIMPACT_SIM_EXPERIMENT_H_
