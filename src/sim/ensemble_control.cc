#include "sim/ensemble_control.h"

#include <algorithm>
#include <cstdint>

#include "base/check.h"
#include "runtime/parallel_for.h"
#include "runtime/seed_sequence.h"

namespace eqimpact {
namespace sim {

EnsembleRunResult RunEnsembleControl(EnsembleControllerKind kind,
                                     const EnsembleOptions& options,
                                     const std::vector<bool>& initial_on,
                                     double initial_signal,
                                     rng::Random* random,
                                     const EnsembleStepObserver& observer) {
  EQIMPACT_CHECK_EQ(initial_on.size(), options.num_agents);
  EQIMPACT_CHECK_GT(options.steps, options.burn_in);
  EQIMPACT_CHECK(random != nullptr);

  const size_t n = options.num_agents;
  // Agent states as bytes (1 = ON), so a step has no per-agent branch.
  std::vector<uint8_t> on(initial_on.begin(), initial_on.end());
  std::vector<double> uniforms;
  if (kind == EnsembleControllerKind::kStableRandomized) uniforms.resize(n);
  double signal = initial_signal;

  EnsembleRunResult result;
  result.per_agent_average.assign(n, 0.0);
  result.aggregate_fraction.reserve(options.steps);
  size_t counted = 0;
  std::vector<double> action_sum;
  std::vector<double> running_average;
  if (observer) {
    action_sum.assign(n, 0.0);
    running_average.assign(n, 0.0);
  }

  for (size_t k = 0; k < options.steps; ++k) {
    // Agents respond to the broadcast.
    switch (kind) {
      case EnsembleControllerKind::kStableRandomized: {
        // Agent i is ON with probability p: Bernoulli(p) is
        // UniformDouble() < p, and the batch fill is bit for bit the n
        // sequential draws.
        const double p = std::clamp(signal, 0.0, 1.0);
        random->FillUniformDouble(uniforms.data(), n);
        for (size_t i = 0; i < n; ++i) on[i] = uniforms[i] < p;
        break;
      }
      case EnsembleControllerKind::kIntegralHysteresis: {
        // OFF agents switch ON at or above 1/2 + h; then ON agents, those
        // just switched included, switch OFF at or below 1/2 - h.
        const uint8_t up = signal >= 0.5 + options.hysteresis;
        const uint8_t keep = !(signal <= 0.5 - options.hysteresis);
        for (size_t i = 0; i < n; ++i) on[i] = (on[i] | up) & keep;
        break;
      }
    }

    // Aggregate and record. The integer ON count is exactly the sum of
    // the agents' 0/1 actions as doubles.
    size_t num_on = 0;
    for (size_t i = 0; i < n; ++i) num_on += on[i];
    const double fraction =
        static_cast<double>(num_on) / static_cast<double>(n);
    result.aggregate_fraction.push_back(fraction);
    if (k >= options.burn_in) {
      for (size_t i = 0; i < n; ++i) {
        result.per_agent_average[i] += static_cast<double>(on[i]);
      }
      result.aggregate_average += fraction;
      ++counted;
    }
    if (observer) {
      const double denominator = static_cast<double>(k + 1);
      for (size_t i = 0; i < n; ++i) {
        action_sum[i] += static_cast<double>(on[i]);
        running_average[i] = action_sum[i] / denominator;
      }
      EnsembleStepSnapshot snapshot{k, running_average, fraction, signal};
      observer(snapshot);
    }

    // Controller update.
    switch (kind) {
      case EnsembleControllerKind::kStableRandomized:
        signal = options.target_fraction;  // Static, stable broadcast.
        break;
      case EnsembleControllerKind::kIntegralHysteresis:
        signal += options.gain * (options.target_fraction - fraction);
        break;
    }
  }

  for (double& average : result.per_agent_average) {
    average /= static_cast<double>(counted);
  }
  result.aggregate_average /= static_cast<double>(counted);
  result.final_signal = signal;
  return result;
}

std::vector<EnsembleRunResult> RunEnsembleStudy(
    const std::vector<EnsembleStudySpec>& specs,
    const EnsembleStudyOptions& options) {
  std::vector<EnsembleRunResult> results(specs.size());
  const runtime::SeedSequence seeds(options.master_seed);
  runtime::ParallelForOptions dispatch;
  dispatch.num_threads = options.num_threads;
  runtime::ParallelFor(
      specs.size(),
      [&specs, &options, &seeds, &results](size_t i) {
        const uint64_t seed_index =
            specs[i].seed_index < 0
                ? i
                : static_cast<uint64_t>(specs[i].seed_index);
        rng::Random random(seeds.Seed(seed_index));
        results[i] =
            RunEnsembleControl(specs[i].kind, options.ensemble,
                               specs[i].initial_on, specs[i].initial_signal,
                               &random);
      },
      dispatch);
  return results;
}

}  // namespace sim
}  // namespace eqimpact
