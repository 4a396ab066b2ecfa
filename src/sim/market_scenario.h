#ifndef EQIMPACT_SIM_MARKET_SCENARIO_H_
#define EQIMPACT_SIM_MARKET_SCENARIO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/impact_equalizer.h"
#include "market/matching_market.h"
#include "sim/scenario.h"

namespace eqimpact {
namespace sim {

/// Skill classes are byte group ids, so a market has at most 256.
inline constexpr size_t kMaxSkillClasses = 256;

/// Configuration of the matching-market scenario.
struct MatchingMarketScenarioOptions {
  /// Per-trial market configuration; the trial seed is overridden per
  /// trial.
  market::MatchingMarketOptions market;
  market::MatchingRule rule = market::MatchingRule::kEpsilonGreedy;
  /// Impact groups: equal-width skill classes over the heterogeneous
  /// skill range [0.3, 0.9). With homogeneous skill every worker lands
  /// in the class containing base_skill; use 1 class (the default) for
  /// the "identical workers" experiments. At most kMaxSkillClasses.
  size_t skill_classes = 1;
  /// Regulator intervention: every `equalizer.period` rounds, a
  /// core::ImpactEqualizer observes the per-class running match rates
  /// (beneficial impact, so under-served classes get larger offsets)
  /// and steers the market's RoundControls — per-worker exploration
  /// weights exp(offset_class) plus a global exploration top-up
  /// proportional to strength * observed dispersion (Gini of the
  /// running match rates). strength == 0 disables the intervention.
  core::EqualizerInterventionOptions equalizer;
};

/// The paper's two-sided matching market as a Scenario: groups are
/// skill classes, steps are the matching rounds, and the streamed
/// impact is every worker's running match rate — giving the market the
/// multi-trial driver, trial parallelism and sweep harness it never
/// had. Sweepable parameters include the exploration fraction and the
/// equalizer strength, the two regulator knobs whose effect on the
/// match-rate Gini is the paper's qualitative market result.
class MatchingMarketScenario : public Scenario {
 public:
  explicit MatchingMarketScenario(MatchingMarketScenarioOptions options = {});

  std::string name() const override;
  std::vector<std::string> GroupLabels() const override;
  std::vector<std::string> StepLabels() const override;
  std::vector<std::string> MetricNames() const override;
  /// "exploration", "capacity_fraction", "rounds", "num_workers",
  /// "rule" (0 = top-score, 1 = epsilon-greedy, 2 = uniform),
  /// "heterogeneous_skill" (0/1), "skill_classes" (1 to 256),
  /// "equalizer_strength", "equalizer_period" are accepted.
  bool SetParameter(const std::string& name, double value) override;
  std::vector<std::string> ParameterNames() const override;
  TrialOutcome RunTrial(const TrialContext& context,
                        stats::AdrAccumulator* impacts) override;
  /// EWMA surrogate of one worker's running match rate under uniform
  /// capacity rationing (see the .cc for the exact maps).
  std::optional<ScenarioDynamics> DynamicsModel() const override;

  const MatchingMarketScenarioOptions& options() const { return options_; }

 private:
  size_t num_groups() const;
  /// Class of one skill value under the current group structure.
  size_t SkillClass(double skill) const;

  MatchingMarketScenarioOptions options_;
};

}  // namespace sim
}  // namespace eqimpact

#endif  // EQIMPACT_SIM_MARKET_SCENARIO_H_
