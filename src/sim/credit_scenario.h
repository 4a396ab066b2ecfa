#ifndef EQIMPACT_SIM_CREDIT_SCENARIO_H_
#define EQIMPACT_SIM_CREDIT_SCENARIO_H_

#include <string>
#include <vector>

#include "credit/credit_loop.h"
#include "sim/scenario.h"

namespace eqimpact {
namespace sim {

/// Configuration of the credit scenario beyond the loop itself.
struct CreditScenarioOptions {
  /// Per-trial loop configuration. The trial seed and keep_user_adr are
  /// overridden per trial; `loop.num_threads` applies within each trial
  /// unless the experiment's trial_threads overrides it.
  credit::CreditLoopOptions loop;
  /// Materialize the raw per-user ADR series in each trial's record
  /// (CreditLoopResult::user_adr; see set_collect_trial_records), needed
  /// only for per-user series and exact quantiles. Off, the pooled
  /// distribution lives only in the experiment's streaming accumulator.
  bool keep_raw_series = false;
};

/// The paper's Section VII credit-scoring loop as a Scenario: groups are
/// the protected race classes (the CPS race names in Race enum order),
/// steps are the simulated years (labelled by calendar year), and the
/// streamed impact is every user's average default rate ADR_i(k).
/// RunExperiment over this scenario gives the bits of the original
/// credit-only multi-trial function, which tests/scenario_test.cc keeps
/// as its oracle.
class CreditScenario : public Scenario {
 public:
  explicit CreditScenario(CreditScenarioOptions options = {});

  std::string name() const override;
  std::vector<std::string> GroupLabels() const override;
  std::vector<std::string> StepLabels() const override;
  std::vector<std::string> MetricNames() const override;
  /// "num_users", "cutoff", "forgetting_factor", "income_code_threshold"
  /// and "accumulate_history" (0/1) are accepted.
  bool SetParameter(const std::string& name, double value) override;
  std::vector<std::string> ParameterNames() const override;
  void BeginExperiment(size_t num_trials) override;
  /// Checkpoint-capable: the credit engine's yearly snapshots flow to
  /// TrialContext::checkpoint_sink and resume byte-identically from
  /// TrialContext::resume_state. The fingerprint is the engine's
  /// credit::LoopConfigFingerprint of the trials' loop options, and an
  /// engine blob is checked by credit::CheckLoopSnapshot under the
  /// trial's own seed.
  std::optional<uint64_t> CheckpointFingerprint() const override;
  base::SnapshotStatus CheckEngineState(
      const TrialContext& context,
      const std::vector<uint8_t>& state) const override;
  /// EWMA surrogate of a marginal applicant's ADR: the default indicator
  /// stream of a user held at the approval boundary, averaged with the
  /// loop's forgetting factor (see the .cc for the exact maps).
  std::optional<ScenarioDynamics> DynamicsModel() const override;
  TrialOutcome RunTrial(const TrialContext& context,
                        stats::AdrAccumulator* impacts) override;

  const CreditScenarioOptions& options() const { return options_; }

  /// Full per-trial credit records (scorecards, race and overall series,
  /// and the per-user ADR series under keep_raw_series), indexed by
  /// trial: an experiment collects them only when asked to before it
  /// starts, and TakeTrialRecords moves them out.
  void set_collect_trial_records(bool collect) {
    collect_trial_records_ = collect;
  }
  std::vector<credit::CreditLoopResult>&& TakeTrialRecords() {
    return std::move(trial_records_);
  }

 private:
  CreditScenarioOptions options_;
  bool collect_trial_records_ = false;
  std::vector<credit::CreditLoopResult> trial_records_;
};

}  // namespace sim
}  // namespace eqimpact

#endif  // EQIMPACT_SIM_CREDIT_SCENARIO_H_
