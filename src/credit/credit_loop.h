#ifndef EQIMPACT_CREDIT_CREDIT_LOOP_H_
#define EQIMPACT_CREDIT_CREDIT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/serial.h"
#include "credit/adr_filter.h"
#include "credit/income_model.h"
#include "credit/race.h"
#include "credit/repayment_model.h"
#include "ml/logistic_regression.h"
#include "runtime/parallel_for.h"
#include "stats/adr_accumulator.h"

namespace eqimpact {
namespace credit {

/// Consumer of within-trial checkpoints: invoked from the simulating
/// thread after each completed year with the number of completed years
/// and a framed binary snapshot ("EQCK", see base::OpenFrame) of the
/// trial's state (cohort, filter, grouped history, trainer fit, partial
/// per-year series). Feeding the snapshot back through
/// CreditLoopOptions::resume_state continues the trial from that year
/// with output byte-identical to the uninterrupted run. The sink may
/// copy or persist the blob; the reference is valid only for the
/// duration of the call.
using LoopCheckpointSink = std::function<void(
    size_t years_completed, const std::vector<uint8_t>& state)>;

/// Configuration of the paper's Section VII closed loop.
struct CreditLoopOptions {
  /// Cohort size (paper: N = 1000).
  size_t num_users = 1000;
  /// Simulated period (paper: 2002-2020 inclusive, one year per step).
  int first_year = 2002;
  int last_year = 2020;
  /// Steps with no scorecard, everyone approved (paper: k = 0, 1).
  size_t warmup_steps = 2;
  /// Scorecard cut-off (paper: 0.4).
  double cutoff = 0.4;
  /// Income-code threshold in $K (paper: 1{z >= 15}).
  double income_code_threshold = 15.0;
  /// Filter forgetting factor; 1 reproduces the paper's accumulating
  /// average default rate.
  double forgetting_factor = 1.0;
  /// Train on the loop's entire history (true) or only on the latest
  /// year's observations (false) — a retraining-protocol ablation.
  bool accumulate_history = true;
  /// Bin width for the ADR feature when grouping the training history
  /// into weighted unique rows (ml::BinnedDataset). Negative (default)
  /// = automatic: exact grouping when forgetting_factor == 1 (the
  /// paper's accumulating filter makes every ADR a rational d/o with o
  /// bounded by the year count, so the whole history collapses into a
  /// few hundred exact groups regardless of cohort size), else
  /// 2^-16 (each surrogate ADR within 2^-17 of the raw one, far below
  /// the scorecard's resolution). 0 forces exact grouping; a positive
  /// width forces that bin width. The income code is always exact.
  double history_adr_bin_width = -1.0;
  /// Fold each year's observations into the grouped history as per-chunk
  /// tallies over the dense (offers, defaults, income code) slot space —
  /// an increment per row in the parallel sweep, then one
  /// BinnedDataset::AddCounts per chunk — instead of the generic
  /// quantize+hash+probe path per row. Output is bitwise-identical
  /// (pinned by CreditLoopTest.DenseHistoryFoldMatchesHashedFold): the
  /// slots key on the exact integer filter counters whose guarded ratio
  /// IS the ADR feature, a slot's group is found by key so
  /// value-aliasing rationals (1/2 vs 2/4) share a group exactly as
  /// before, chunks fold in chunk order with their slots in first-seen
  /// order, and whole-number weights sum exactly. The engine applies it
  /// only when the counters are exact — the accumulating filter
  /// (forgetting_factor == 1) with exact ADR grouping, an accumulated
  /// history and at most 64 years — and falls back to the hashed fold
  /// otherwise. Off = always use the hashed fold.
  bool dense_history_fold = true;
  /// Behavioural model parameters (equations (10)-(11)).
  RepaymentModelOptions repayment;
  /// Scorecard trainer configuration. Defaults (no intercept, small
  /// ridge) match Table I's two-factor structure. `warm_start` is
  /// managed by the loop itself (always on: the yearly refit resumes
  /// from last year's weights), and `num_threads`/`pool` are overridden
  /// to follow the loop's own thread budget and persistent pool (set
  /// CreditLoopOptions::num_threads to size the fit's fan-out); the
  /// other fields are honoured as given.
  ml::LogisticRegressionOptions logistic;
  /// Master seed; one trial per seed. Different seeds = the paper's
  /// independent trials with "a new batch of 1000 users".
  uint64_t seed = 0;

  /// Users per batch chunk — the unit of work *and* of RNG sub-stream
  /// derivation of the engine's per-year passes. Output is a pure
  /// function of (seed, users_per_chunk) and bitwise-independent of
  /// num_threads; changing the chunk size relayouts the income/repayment
  /// streams, i.e. acts like a different seed.
  size_t users_per_chunk = 4096;
  /// Worker threads for the within-trial chunk passes and the yearly
  /// scorecard refit (the trainer's chunked gradient/Hessian reduction
  /// shares the same persistent pool). 1 (default) runs sequentially
  /// with zero dispatch overhead; 0 = hardware concurrency. Ignored
  /// when `pool` is set.
  size_t num_threads = 1;
  /// Optional caller-owned persistent pool for the within-trial
  /// dispatch (chunk passes + refit reduction), replacing the pool the
  /// engine would otherwise construct per Run — lets a sequential
  /// multi-trial driver amortize one pool across trials. Not owned;
  /// must be idle when Run is called and outlive it. Never affects the
  /// simulated output (which is thread-count invariant by design). A
  /// one-chunk trial runs inline and leaves it idle.
  runtime::ThreadPool* pool = nullptr;
  /// Record the full per-user ADR series in the result (the raw material
  /// of Figures 4/5). Disable for very large cohorts and stream the
  /// per-year cross-sections into `impacts` instead: the engine then
  /// holds O(num_users) state, not O(num_users x num_years).
  bool keep_user_adr = true;

  /// When set, year k's ADRs are folded into cells (k, race) inside the
  /// year's pass, one in-order fold per race (a runtime::ChunkStages
  /// stage), bitwise as an observer's AddCrossSection(step, user_adr,
  /// race_ids) would. Shaped kNumRaces groups by one step per year; not
  /// owned. A resumed run folds on from what it holds.
  stats::AdrAccumulator* impacts = nullptr;

  /// When set, the engine serializes its full state after every
  /// simulated year and hands the snapshot to this sink (from the
  /// calling thread, after the year's observer callback). Null (the
  /// default) disables checkpointing and leaves the hot path untouched.
  LoopCheckpointSink checkpoint_sink;

  /// When non-null, Run restores this previously sunk snapshot instead
  /// of starting fresh and continues from the first unfinished year;
  /// the completed result is byte-identical to an uninterrupted run
  /// with the same options. The snapshot must be one CheckLoopSnapshot
  /// accepts for these options (Run CHECK-fails otherwise): sunk by a
  /// run with the same output-affecting options (cohort, years, models,
  /// seed, users_per_chunk, keep_user_adr — bound by an options
  /// fingerprint; num_threads and pool may differ freely). Not owned;
  /// must outlive Run.
  const std::vector<uint8_t>* resume_state = nullptr;
};

/// Fitted scorecard parameters of one retraining step.
struct ScorecardSnapshot {
  int year = 0;
  /// Coefficient on ADR_i(k-1) (Table I "History": -8.17 in the example).
  double history_weight = 0.0;
  /// Coefficient on the income code (Table I "Income": +5.77).
  double income_weight = 0.0;
  /// Base points (0 when trained without intercept).
  double intercept = 0.0;
};

/// Complete record of one trial of the closed loop.
struct CreditLoopResult {
  /// Simulated years, index-aligned with every per-year series below.
  std::vector<int> years;
  /// Race of every user.
  std::vector<Race> races;
  /// ADR_i(k): one series per user over the years (Figures 4, 5). Empty
  /// when CreditLoopOptions::keep_user_adr is false.
  std::vector<std::vector<double>> user_adr;
  /// ADR_s(k): one series per race, indexed by Race enum (Figure 3).
  std::vector<std::vector<double>> race_adr;
  /// Approval rate per race per year.
  std::vector<std::vector<double>> race_approval;
  /// Population-mean ADR per year.
  std::vector<double> overall_adr;
  /// One snapshot per retraining step (years with a scorecard in force).
  std::vector<ScorecardSnapshot> scorecards;
};

/// One simulated year's cross-section, handed to a YearObserver after the
/// year's pass. References stay valid only for the duration of the
/// callback.
struct YearSnapshot {
  /// Year index k (0-based) and calendar year.
  size_t step = 0;
  int year = 0;
  /// ADR_i(k) of every user.
  const std::vector<double>& user_adr;
  /// Race of every user (constant across years), as the enum and as
  /// dense ids (for group-indexed consumers like stats::AdrAccumulator).
  const std::vector<Race>& races;
  const std::vector<uint8_t>& race_ids;
};

/// Consumer of per-year cross-sections, called once per year after the
/// year's pass, on the thread that called Run (CreditLoopOptions::impacts
/// folds inside the pass instead).
using YearObserver = std::function<void(const YearSnapshot&)>;

/// The paper's credit-scoring closed loop (Figure 1 instantiated for
/// Section VII): incomes are redrawn every year from the census model,
/// the logistic scorecard is refit on the accumulated (income code,
/// trailing ADR -> repayment) history, decisions at cut-off 0.4 feed the
/// Gaussian repayment model, and the accumulating filter updates every
/// user's average default rate, which is in turn next year's training
/// input — closing the loop.
///
/// The implementation is a batch structure-of-arrays engine: each year
/// refits the scorecard, then runs one chunked pass over contiguous
/// arrays. Each chunk draws its users' incomes and repayment uniforms,
/// then runs a branch-light decide/act/filter sweep with the scorecard
/// weights hoisted into scalars. Chunks carry RNG sub-streams derived
/// from (stream, year, chunk index), so the pass parallelises over
/// options().num_threads workers with output bitwise-identical to the
/// sequential run. Each chunk also leaves its refit examples as a tally
/// and, when `impacts` is set, its users' post-update ADRs grouped by
/// race. What must follow user order runs inside the pass as
/// runtime::ChunkStages stages, which take the chunks in chunk order as
/// they finish: one folds the tallies into the history and sums the
/// per-race offers and ADRs, and one per race folds that race's ADRs
/// into the accumulator. Each chunk owns its outputs (yield, snapshot
/// and race ranges). The pass walks the chunks shard by shard, four
/// shards of whole chunks per worker, and the kernel scratch belongs to
/// a shard, so its memory scales with the worker count, not the cohort.
///
/// A trial is a value: Run builds its per-trial workspace (pool, shard
/// plan, scratch, buffers) once, takes the trial state fresh or decoded
/// from resume_state, and steps it one year at a time; a checkpoint is
/// that state after a year, encoded.
///
/// The training history is held as sufficient statistics, not rows: each
/// year's observations are weight-merged into an ml::BinnedDataset of
/// unique (ADR, code) groups (see history_adr_bin_width), so the
/// accumulated history — the former num_users x num_years memory floor —
/// stays O(groups), and the yearly refit runs over groups with the
/// trainer's chunked reduction on the same worker pool.
class CreditScoringLoop {
 public:
  explicit CreditScoringLoop(CreditLoopOptions options = CreditLoopOptions());

  const CreditLoopOptions& options() const { return options_; }

  /// Runs one full trial and returns its record. Deterministic in
  /// options().seed (and users_per_chunk; never in num_threads).
  CreditLoopResult Run() const;

  /// Runs one full trial, additionally invoking `observer` once per year
  /// (from the calling thread) with that year's ADR cross-section.
  CreditLoopResult Run(const YearObserver& observer) const;

 private:
  CreditLoopOptions options_;
};

/// Decodes `snapshot` as a resume_state for a loop with `options`
/// without running anything: kOk iff Run can resume from it, else the
/// frame's reason (base::OpenFrame) or kShape for a body this engine
/// could not have written under these options. Never aborts, and never
/// allocates more than the snapshot's size beyond the trial's own
/// cohort-sized state.
base::SnapshotStatus CheckLoopSnapshot(const CreditLoopOptions& options,
                                       const std::vector<uint8_t>& snapshot);

/// Fingerprint of every output-affecting option except the seed: the
/// trial configuration an experiment snapshot binds to
/// (sim::CreditScenario::CheckpointFingerprint). Leaves out what
/// snapshots leave out — thread counts, the pool, dense_history_fold
/// and the checkpoint settings.
uint64_t LoopConfigFingerprint(const CreditLoopOptions& options);

}  // namespace credit
}  // namespace eqimpact

#endif  // EQIMPACT_CREDIT_CREDIT_LOOP_H_
