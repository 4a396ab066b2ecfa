#include "sim/ensemble_scenario.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/check.h"
#include "sim/text_table.h"
#include "stats/aggregate.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace sim {

EnsembleScenario::EnsembleScenario(EnsembleScenarioOptions options)
    : options_(std::move(options)) {}

std::string EnsembleScenario::name() const { return "ensemble"; }

size_t EnsembleScenario::NumInitiallyOn() const {
  const double fraction = std::clamp(options_.initial_on_fraction, 0.0, 1.0);
  return static_cast<size_t>(
      std::ceil(fraction * static_cast<double>(options_.ensemble.num_agents)));
}

std::vector<std::string> EnsembleScenario::GroupLabels() const {
  return {"INITIALLY OFF", "INITIALLY ON"};
}

std::vector<std::string> EnsembleScenario::StepLabels() const {
  std::vector<std::string> labels;
  labels.reserve(options_.ensemble.steps);
  for (size_t k = 0; k < options_.ensemble.steps; ++k) {
    labels.push_back(TextTable::Cell(static_cast<int>(k)));
  }
  return labels;
}

std::vector<std::string> EnsembleScenario::MetricNames() const {
  return {"coincidence_gap", "aggregate_average", "final_signal"};
}

bool EnsembleScenario::SetParameter(const std::string& name, double value) {
  // Out-of-range and non-finite values are rejected here (return
  // false) rather than deferred to a CHECK-abort or an undefined cast
  // inside the control loop mid-experiment.
  if (name == "controller") {
    if (!ParameterInRange(value, 0.0, 1.0)) return false;
    options_.kind =
        static_cast<EnsembleControllerKind>(static_cast<int>(value));
    return true;
  }
  if (name == "num_agents") {
    if (!CountParameterInRange(value)) return false;
    options_.ensemble.num_agents = static_cast<size_t>(value);
    return true;
  }
  if (name == "steps") {
    if (!CountParameterInRange(value)) return false;
    const size_t steps = static_cast<size_t>(value);
    options_.ensemble.steps = steps;
    // The metric burn-in follows the horizon as a fixed fraction, so
    // the effective configuration is a pure function of the final
    // parameter values (no dependence on assignment history) —
    // RunEnsembleControl requires steps > burn_in.
    options_.ensemble.burn_in = steps / 10;
    return true;
  }
  if (name == "target_fraction") {
    if (!ParameterInRange(value, 0.0, 1.0)) return false;
    options_.ensemble.target_fraction = value;
    return true;
  }
  if (name == "gain") {
    if (!ParameterInRange(value, 0.0, kMaxCountParameter)) return false;
    options_.ensemble.gain = value;
    return true;
  }
  if (name == "hysteresis") {
    if (!ParameterInRange(value, 0.0, kMaxCountParameter)) return false;
    options_.ensemble.hysteresis = value;
    return true;
  }
  if (name == "initial_on_fraction") {
    if (!ParameterInRange(value, 0.0, 1.0)) return false;
    options_.initial_on_fraction = value;
    return true;
  }
  return false;
}

std::vector<std::string> EnsembleScenario::ParameterNames() const {
  return {"controller", "num_agents", "steps", "target_fraction", "gain",
          "initial_on_fraction", "hysteresis"};
}

TrialOutcome EnsembleScenario::RunTrial(const TrialContext& context,
                                        stats::AdrAccumulator* impacts) {
  const size_t n = options_.ensemble.num_agents;
  const size_t steps = options_.ensemble.steps;
  const size_t num_on = NumInitiallyOn();
  std::vector<bool> initial_on(n, false);
  std::vector<uint8_t> group_ids(n, 0);
  for (size_t i = 0; i < num_on; ++i) {
    initial_on[i] = true;
    group_ids[i] = 1;
  }
  std::vector<int64_t> group_counts(2, 0);
  for (uint8_t g : group_ids) ++group_counts[g];

  TrialOutcome outcome;
  outcome.group_impact.assign(2, std::vector<double>(steps, 0.0));

  rng::Random random(context.trial_seed);
  const stats::GroupOrder group_order(group_ids);
  stats::CrossSectionBatch cross_sections(impacts, &group_order);
  EnsembleRunResult record = RunEnsembleControl(
      options_.kind, options_.ensemble, initial_on, options_.initial_signal,
      &random,
      [&cross_sections, &outcome, &group_order,
       &group_counts](const EnsembleStepSnapshot& snapshot) {
        cross_sections.Add(snapshot.step, snapshot.running_average);
        double sums[2] = {0.0, 0.0};
        stats::AddGroupSums(snapshot.running_average, group_order, sums);
        for (size_t g = 0; g < 2; ++g) {
          outcome.group_impact[g][snapshot.step] =
              group_counts[g] > 0
                  ? sums[g] / static_cast<double>(group_counts[g])
                  : 0.0;
        }
      });
  cross_sections.Flush();

  outcome.metrics = {stats::CoincidenceGap(record.per_agent_average),
                     record.aggregate_average, record.final_signal};
  return outcome;
}

std::optional<ScenarioDynamics> EnsembleScenario::DynamicsModel() const {
  const double target =
      std::clamp(options_.ensemble.target_fraction, 0.01, 0.99);
  ScenarioDynamics model;
  model.lo = 0.0;
  model.hi = 1.0;
  if (options_.kind == EnsembleControllerKind::kStableRandomized) {
    // One agent's running action average under the stable randomized
    // broadcast: actions are i.i.d. Bernoulli(target), so the running
    // average is the EWMA surrogate with span weight a = 2/(steps+1).
    const double a =
        2.0 / (static_cast<double>(options_.ensemble.steps) + 1.0);
    model.ifs = markov::AffineIfs(
        {markov::AffineMap::Scalar(1.0 - a, a),
         markov::AffineMap::Scalar(1.0 - a, 0.0)},
        {target, 1.0 - target});
    model.description =
        "EWMA of one agent's Bern(target) action under the stable "
        "randomized broadcast";
  } else {
    // Integral action linearized around its cycle: the broadcast level
    // moves by +gain*(target - y) with y in {0, 1}, a slope-1 random
    // walk (clamped at the domain ends by the Ulam window). Average
    // contraction factor is exactly 1 — not average contractive — so
    // unique ergodicity is correctly *not* certified, matching the
    // frozen ON/OFF split the simulation shows.
    const double gain = options_.ensemble.gain;
    model.ifs = markov::AffineIfs(
        {markov::AffineMap::Scalar(1.0, gain * (target - 1.0)),
         markov::AffineMap::Scalar(1.0, gain * target)},
        {target, 1.0 - target});
    model.description =
        "slope-1 integral-hysteresis increments: x' = x + gain*(target - "
        "Bern(target))";
  }
  return model;
}

}  // namespace sim
}  // namespace eqimpact
