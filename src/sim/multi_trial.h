#ifndef EQIMPACT_SIM_MULTI_TRIAL_H_
#define EQIMPACT_SIM_MULTI_TRIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "credit/credit_loop.h"
#include "stats/adr_accumulator.h"
#include "stats/aggregate.h"

namespace eqimpact {
namespace sim {

/// Configuration of a multi-trial credit-scoring experiment (the paper's
/// "five trials ... with each trial using a new batch of 1000 users").
///
/// This is the credit-specific compatibility surface over the generic
/// scenario API: RunMultiTrial is a thin wrapper running a
/// sim::CreditScenario through sim::RunExperiment (see scenario.h /
/// experiment.h), with bitwise-identical results.
struct MultiTrialOptions {
  /// Per-trial loop configuration. `loop.num_threads` parallelises
  /// *within* each trial (chunked user passes and the yearly scorecard
  /// refit's chunked reduction); `loop.keep_user_adr` is overridden by
  /// `keep_raw_series` below. Each trial's training history is held as
  /// weighted (ADR, code) groups (see
  /// credit::CreditLoopOptions::history_adr_bin_width), so even a
  /// 10^6-user trial carries no num_users x num_years training state.
  credit::CreditLoopOptions loop;
  size_t num_trials = 5;
  /// Trial t runs with seed runtime::SeedSequence(master_seed).Seed(t)
  /// (the library-wide DeriveSeed convention).
  uint64_t master_seed = 42;
  /// Worker threads for trial dispatch. 0 = hardware concurrency,
  /// 1 = sequential. Trials are independent (one rng::Random stream per
  /// trial, derived from the trial index) and each writes into its own
  /// preallocated slot, so the result is bitwise-identical for every
  /// thread count.
  size_t num_threads = 0;

  /// Keep the raw per-user ADR series: every trial's
  /// CreditLoopResult::user_adr plus the pooled_user_adr/pooled_races
  /// pool below. Off (the default), per-user series are never
  /// materialized — the pooled distribution lives only in `pooled_adr`,
  /// whose memory is O(num_groups x num_years x adr_bins) regardless of
  /// cohort size or trial count. Opt in for per-user series or exact
  /// quantiles on small runs.
  bool keep_raw_series = false;

  /// Histogram resolution of the streaming pooled-ADR accumulator.
  size_t adr_bins = 64;
};

/// Results of a multi-trial experiment, pre-aggregated for the paper's
/// figures.
struct MultiTrialResult {
  /// Full per-trial records (user_adr populated only under
  /// keep_raw_series).
  std::vector<credit::CreditLoopResult> trials;
  /// Simulated years.
  std::vector<int> years;
  /// Scenario-defined labels of the impact groups, index-aligned with
  /// `race_envelopes` and the accumulator's group axis. For the credit
  /// scenario these are the CPS race names in Race enum order.
  std::vector<std::string> group_labels;
  /// Figure 3: per-group mean +/- std of ADR_s(k) across trials,
  /// index-aligned with `group_labels`.
  std::vector<stats::SeriesEnvelope> race_envelopes;
  /// Figures 4/5: the pooled distribution of ADR_i(k) over all users of
  /// all trials, streamed per year into per-group moments + histograms
  /// (group axis index-aligned with `group_labels`). Always populated;
  /// accumulated per trial and merged in trial order, so it is
  /// bitwise-identical at every thread count.
  stats::AdrAccumulator pooled_adr;
  /// Raw pool of all user ADR series with their races (num_trials x
  /// num_users entries) — only under keep_raw_series; empty otherwise.
  std::vector<std::vector<double>> pooled_user_adr;
  std::vector<credit::Race> pooled_races;
};

/// Runs the closed loop `num_trials` times with independent seeds and
/// aggregates the results. Compatibility wrapper over
/// sim::RunExperiment with a sim::CreditScenario; simulation output is
/// bitwise-identical to the historical direct implementation.
MultiTrialResult RunMultiTrial(const MultiTrialOptions& options);

}  // namespace sim
}  // namespace eqimpact

#endif  // EQIMPACT_SIM_MULTI_TRIAL_H_
