#include "sim/credit_scenario.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "credit/race.h"
#include "sim/text_table.h"

namespace eqimpact {
namespace sim {
namespace {

// The loop options of one trial: the scenario's loop under the trial's
// seed, thread budget, pool and checkpoint plumbing (the loop's yearly
// snapshots ARE the trial's opaque state blobs, same sink signature).
credit::CreditLoopOptions TrialLoopOptions(const CreditScenarioOptions& options,
                                           const TrialContext& context) {
  credit::CreditLoopOptions loop_options = options.loop;
  loop_options.seed = context.trial_seed;
  loop_options.keep_user_adr = options.keep_raw_series;
  if (context.num_threads > 0) loop_options.num_threads = context.num_threads;
  loop_options.pool = context.pool;  // Null under parallel trial dispatch.
  loop_options.checkpoint_sink = context.checkpoint_sink;
  loop_options.resume_state = context.resume_state;
  return loop_options;
}

}  // namespace

CreditScenario::CreditScenario(CreditScenarioOptions options)
    : options_(std::move(options)) {}

std::string CreditScenario::name() const { return "credit"; }

std::vector<std::string> CreditScenario::GroupLabels() const {
  std::vector<std::string> labels;
  labels.reserve(credit::kNumRaces);
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    labels.push_back(credit::RaceName(static_cast<credit::Race>(r)));
  }
  return labels;
}

std::vector<std::string> CreditScenario::StepLabels() const {
  std::vector<std::string> labels;
  for (int year = options_.loop.first_year; year <= options_.loop.last_year;
       ++year) {
    labels.push_back(TextTable::Cell(year));
  }
  return labels;
}

std::vector<std::string> CreditScenario::MetricNames() const {
  return {"final_overall_adr", "final_race_gap"};
}

bool CreditScenario::SetParameter(const std::string& name, double value) {
  // Out-of-range and non-finite values are rejected here (return
  // false) rather than deferred to a CHECK-abort or an undefined cast
  // inside the credit engine mid-experiment.
  if (name == "num_users") {
    if (!CountParameterInRange(value)) return false;
    options_.loop.num_users = static_cast<size_t>(value);
    return true;
  }
  if (name == "cutoff") {
    if (!ParameterInRange(value, 0.0, 1.0)) return false;
    options_.loop.cutoff = value;
    return true;
  }
  if (name == "forgetting_factor") {
    if (!ParameterInRange(value, 0.0, 1.0) || value == 0.0) return false;
    options_.loop.forgetting_factor = value;
    return true;
  }
  if (name == "income_code_threshold") {
    if (!ParameterInRange(value, 0.0, kMaxCountParameter)) return false;
    options_.loop.income_code_threshold = value;
    return true;
  }
  if (name == "accumulate_history") {
    if (!std::isfinite(value)) return false;
    options_.loop.accumulate_history = value != 0.0;
    return true;
  }
  return false;
}

std::vector<std::string> CreditScenario::ParameterNames() const {
  return {"num_users", "cutoff", "forgetting_factor", "income_code_threshold",
          "accumulate_history"};
}

std::optional<uint64_t> CreditScenario::CheckpointFingerprint() const {
  return credit::LoopConfigFingerprint(
      TrialLoopOptions(options_, TrialContext()));
}

base::SnapshotStatus CreditScenario::CheckEngineState(
    const TrialContext& context, const std::vector<uint8_t>& state) const {
  return credit::CheckLoopSnapshot(TrialLoopOptions(options_, context),
                                   state);
}

void CreditScenario::BeginExperiment(size_t num_trials) {
  trial_records_.clear();
  if (collect_trial_records_) trial_records_.resize(num_trials);
}

TrialOutcome CreditScenario::RunTrial(const TrialContext& context,
                                      stats::AdrAccumulator* impacts) {
  // The engine folds each year's cross-section into the trial's
  // accumulator inside its pass, one cell per race.
  credit::CreditLoopOptions loop_options = TrialLoopOptions(options_, context);
  loop_options.impacts = impacts;
  credit::CreditLoopResult record =
      credit::CreditScoringLoop(loop_options).Run();

  TrialOutcome outcome;
  outcome.group_impact = record.race_adr;
  const size_t last = record.overall_adr.size() - 1;
  double lo = 0.0, hi = 0.0;
  bool any = false;
  std::vector<int64_t> race_counts(credit::kNumRaces, 0);
  for (credit::Race race : record.races) {
    ++race_counts[static_cast<size_t>(race)];
  }
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    if (race_counts[r] == 0) continue;
    const double value = record.race_adr[r][last];
    if (!any) {
      lo = hi = value;
      any = true;
    } else {
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
  }
  outcome.metrics = {record.overall_adr[last], any ? hi - lo : 0.0};
  if (collect_trial_records_) {
    trial_records_[context.trial_index] = std::move(record);
  }
  return outcome;
}

std::optional<ScenarioDynamics> CreditScenario::DynamicsModel() const {
  // Surrogate: the ADR of a *marginal* applicant — one held at the
  // approval boundary, where the equal-impact question lives — is an
  // exponentially weighted average of their default indicator stream.
  // With forgetting factor f < 1 the engine's yearly update weighs the
  // newest year by a = 1 - f; at f = 1 (plain accumulation) the
  // late-horizon yearly weight is ~1/num_years. The indicator is
  // Bernoulli(p) with p the boundary default rate, which the scorecard
  // cutoff pins by construction. Abstracted away: population
  // heterogeneity, the yearly refit, and approval-set feedback.
  const int num_years =
      options_.loop.last_year - options_.loop.first_year + 1;
  if (num_years <= 0) return std::nullopt;
  double a = options_.loop.forgetting_factor < 1.0
                 ? 1.0 - options_.loop.forgetting_factor
                 : 1.0 / static_cast<double>(num_years);
  a = std::clamp(a, 1e-6, 1.0);
  const double p = std::clamp(options_.loop.cutoff, 0.01, 0.99);
  ScenarioDynamics model;
  model.ifs = markov::AffineIfs(
      {markov::AffineMap::Scalar(1.0 - a, a),
       markov::AffineMap::Scalar(1.0 - a, 0.0)},
      {p, 1.0 - p});
  model.lo = 0.0;
  model.hi = 1.0;
  model.description =
      "EWMA of a boundary applicant's default indicator: "
      "x' = (1-a) x + a Bern(cutoff)";
  return model;
}

}  // namespace sim
}  // namespace eqimpact
