#include "sim/market_scenario.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "base/check.h"
#include "sim/text_table.h"
#include "stats/aggregate.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace sim {

namespace {
/// Skill-class boundaries partition the market's sampling range, so
/// they can never drift from it.
constexpr double kSkillLo = market::kHeterogeneousSkillLo;
constexpr double kSkillHi = market::kHeterogeneousSkillHi;
}  // namespace

MatchingMarketScenario::MatchingMarketScenario(
    MatchingMarketScenarioOptions options)
    : options_(std::move(options)) {}

std::string MatchingMarketScenario::name() const { return "market"; }

size_t MatchingMarketScenario::num_groups() const {
  return std::max<size_t>(1, options_.skill_classes);
}

size_t MatchingMarketScenario::SkillClass(double skill) const {
  const size_t classes = num_groups();
  if (classes == 1) return 0;
  const double position = (skill - kSkillLo) / (kSkillHi - kSkillLo) *
                          static_cast<double>(classes);
  const double clamped =
      std::clamp(position, 0.0, static_cast<double>(classes) - 1.0);
  return static_cast<size_t>(clamped);
}

std::vector<std::string> MatchingMarketScenario::GroupLabels() const {
  const size_t classes = num_groups();
  if (classes == 1) return {"ALL WORKERS"};
  std::vector<std::string> labels;
  labels.reserve(classes);
  const double width = (kSkillHi - kSkillLo) / static_cast<double>(classes);
  for (size_t c = 0; c < classes; ++c) {
    labels.push_back(
        "SKILL [" +
        TextTable::Cell(kSkillLo + static_cast<double>(c) * width, 2) + "," +
        TextTable::Cell(kSkillLo + static_cast<double>(c + 1) * width, 2) +
        ")");
  }
  return labels;
}

std::vector<std::string> MatchingMarketScenario::StepLabels() const {
  std::vector<std::string> labels;
  labels.reserve(options_.market.rounds);
  for (size_t r = 0; r < options_.market.rounds; ++r) {
    labels.push_back(TextTable::Cell(static_cast<int>(r)));
  }
  return labels;
}

std::vector<std::string> MatchingMarketScenario::MetricNames() const {
  return {"match_rate_gini", "mean_match_rate", "final_exploration"};
}

bool MatchingMarketScenario::SetParameter(const std::string& name,
                                          double value) {
  // Out-of-range and non-finite values are rejected here (return
  // false) rather than deferred to a CHECK-abort or an undefined cast
  // inside the market loop mid-experiment.
  if (name == "exploration") {
    if (!ParameterInRange(value, 0.0, 1.0)) return false;
    options_.market.exploration = value;
    return true;
  }
  if (name == "capacity_fraction") {
    if (!ParameterInRange(value, 0.0, 1.0) || value == 0.0) return false;
    options_.market.capacity_fraction = value;
    return true;
  }
  if (name == "rounds") {
    if (!CountParameterInRange(value)) return false;
    options_.market.rounds = static_cast<size_t>(value);
    return true;
  }
  if (name == "num_workers") {
    if (!CountParameterInRange(value)) return false;
    options_.market.num_workers = static_cast<size_t>(value);
    return true;
  }
  if (name == "rule") {
    if (!ParameterInRange(value, 0.0, 2.0)) return false;
    options_.rule = static_cast<market::MatchingRule>(static_cast<int>(value));
    return true;
  }
  if (name == "heterogeneous_skill") {
    if (!std::isfinite(value)) return false;
    options_.market.heterogeneous_skill = value != 0.0;
    return true;
  }
  if (name == "skill_classes") {
    if (!ParameterInRange(value, 1.0, kMaxSkillClasses)) return false;
    options_.skill_classes = static_cast<size_t>(value);
    return true;
  }
  if (name == "equalizer_strength") {
    if (!ParameterInRange(value, 0.0, kMaxCountParameter)) return false;
    options_.equalizer.strength = value;
    return true;
  }
  if (name == "equalizer_period") {
    if (!CountParameterInRange(value)) return false;
    options_.equalizer.period = static_cast<size_t>(value);
    return true;
  }
  return false;
}

std::vector<std::string> MatchingMarketScenario::ParameterNames() const {
  return {"exploration", "capacity_fraction", "rounds", "num_workers",
          "rule", "heterogeneous_skill", "skill_classes",
          "equalizer_strength", "equalizer_period"};
}

TrialOutcome MatchingMarketScenario::RunTrial(const TrialContext& context,
                                              stats::AdrAccumulator* impacts) {
  market::MatchingMarketOptions market_options = options_.market;
  market_options.seed = context.trial_seed;
  const size_t groups = num_groups();
  EQIMPACT_CHECK_LE(groups, kMaxSkillClasses);
  const size_t rounds = market_options.rounds;

  TrialOutcome outcome;
  outcome.group_impact.assign(groups, std::vector<double>(rounds, 0.0));

  std::optional<core::ImpactEqualizer> equalizer;
  if (options_.equalizer.enabled()) {
    core::EqualizerInterventionOptions spec = options_.equalizer;
    spec.beneficial_impact = true;  // Match rates: boost the under-served.
    equalizer = core::MakeEqualizer(groups, spec);
  }

  // Skill classes are fixed per trial; computed from the first snapshot.
  std::vector<uint8_t> group_ids;
  std::vector<int64_t> group_counts(groups, 0);
  std::vector<double> class_mean(groups, 0.0);
  std::vector<double> class_weight(groups, 0.0);
  stats::GroupOrder group_order;
  stats::CrossSectionBatch cross_sections(impacts, &group_order);

  const market::RoundObserver observer =
      [this, &outcome, &equalizer, &group_ids, &group_order, &group_counts,
       &class_mean, &class_weight, &cross_sections,
       groups](const market::RoundSnapshot& snapshot,
               market::RoundControls* controls) {
        const size_t n = snapshot.skill.size();
        if (group_ids.empty()) {
          group_ids.resize(n);
          for (size_t i = 0; i < n; ++i) {
            group_ids[i] = static_cast<uint8_t>(SkillClass(snapshot.skill[i]));
            ++group_counts[group_ids[i]];
          }
          group_order = stats::GroupOrder(group_ids);
        }
        cross_sections.Add(snapshot.round, snapshot.running_match_rate);

        // Per-class mean running match rate; empty classes carry the
        // overall mean so they stay neutral under the equalizer.
        std::fill(class_mean.begin(), class_mean.end(), 0.0);
        const double overall =
            stats::AddGroupSums(snapshot.running_match_rate, group_order,
                                class_mean.data()) /
            static_cast<double>(n);
        for (size_t g = 0; g < groups; ++g) {
          class_mean[g] = group_counts[g] > 0
                              ? class_mean[g] /
                                    static_cast<double>(group_counts[g])
                              : overall;
          outcome.group_impact[g][snapshot.round] = class_mean[g];
        }

        // The regulator acts every `period` rounds: class-level
        // exploration weights from the equalizer offsets, plus a global
        // exploration top-up proportional to the observed dispersion.
        if (equalizer &&
            (snapshot.round + 1) % options_.equalizer.period == 0) {
          equalizer->Observe(class_mean);
          for (size_t g = 0; g < groups; ++g) {
            class_weight[g] = std::exp(equalizer->offsets()[g]);
          }
          controls->explore_weights.resize(n);
          for (size_t i = 0; i < n; ++i) {
            controls->explore_weights[i] = class_weight[group_ids[i]];
          }
          const double dispersion =
              stats::GiniCoefficient(snapshot.running_match_rate);
          controls->exploration =
              std::clamp(options_.market.exploration +
                             options_.equalizer.strength * dispersion,
                         0.0, 1.0);
        }
      };

  market::MatchingMarketResult record =
      RunMatchingMarket(options_.rule, market_options, observer);
  cross_sections.Flush();
  outcome.metrics = {record.match_rate_gini, record.mean_match_rate,
                     record.final_exploration};
  return outcome;
}

std::optional<ScenarioDynamics> MatchingMarketScenario::DynamicsModel()
    const {
  // Surrogate: one worker's running match rate. Under uniform capacity
  // rationing a worker is matched each round with probability ~=
  // capacity_fraction (jobs per round / workers); the running average
  // over `rounds` rounds behaves like an EWMA with the span-equivalent
  // weight a = 2 / (rounds + 1). Abstracted away: reputation-sorted
  // assignment, exploration and the equalizer intervention.
  if (options_.market.rounds == 0) return std::nullopt;
  const double a =
      2.0 / (static_cast<double>(options_.market.rounds) + 1.0);
  const double p = std::clamp(options_.market.capacity_fraction, 0.01, 0.99);
  ScenarioDynamics model;
  model.ifs = markov::AffineIfs(
      {markov::AffineMap::Scalar(1.0 - a, a),
       markov::AffineMap::Scalar(1.0 - a, 0.0)},
      {p, 1.0 - p});
  model.lo = 0.0;
  model.hi = 1.0;
  model.description =
      "EWMA of one worker's match indicator: "
      "x' = (1-a) x + a Bern(capacity_fraction)";
  return model;
}

}  // namespace sim
}  // namespace eqimpact
