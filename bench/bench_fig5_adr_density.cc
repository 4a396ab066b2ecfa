// Reproduces paper Figure 5: the density of ADR_i(k) per year with race
// information erased — the paper's grey-shade plot becomes a per-year
// histogram grid over [0, 1] (darker = higher density).
//
// The per-year fractions come straight from the streaming pooled-ADR
// accumulator (10 bins, exactly the figure's binning): no per-user
// series is ever materialized, so the bench's memory is O(bins x years)
// however many users and trials are pooled.
//
// Expected shape (paper): mass concentrated near 0 throughout, a visible
// streak of high-ADR users after the warm-up years that fades as the
// scorecard loop suppresses repeat defaults, and a tight concentration at
// a low level by 2020.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/credit_scenario.h"
#include "sim/experiment.h"
#include "stats/adr_accumulator.h"

int main() {
  std::printf(
      "=== Figure 5: density of ADR_i(k) by year, race-blind ===\n\n");

  constexpr size_t kBins = 10;
  eqimpact::sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 1000;
  eqimpact::sim::CreditScenario scenario(scenario_options);
  eqimpact::sim::ExperimentOptions options;
  options.num_trials = 5;
  options.master_seed = 42;
  options.impact_bins = kBins;
  eqimpact::sim::ExperimentResult result =
      eqimpact::sim::RunExperiment(&scenario, options);
  const eqimpact::stats::AdrAccumulator& adr = result.pooled_impact;

  // Header: bin ranges.
  std::printf("%-6s", "Year");
  for (size_t b = 0; b < kBins; ++b) {
    std::printf(" [%.1f,%.1f)", 0.1 * static_cast<double>(b),
                0.1 * static_cast<double>(b + 1));
  }
  std::printf("   (fraction of the 5000 users per ADR bin)\n");

  const std::string shades = " .:-=+*#%@";  // Darker = denser.
  std::vector<double> final_fractions(kBins, 0.0);
  for (size_t k = 0; k < result.step_labels.size(); ++k) {
    std::printf("%-6s", result.step_labels[k].c_str());
    for (size_t b = 0; b < kBins; ++b) {
      double fraction = adr.StepBinFraction(k, b);
      std::printf(" %9.4f", fraction);
      if (k + 1 == result.step_labels.size()) final_fractions[b] = fraction;
    }
    // Compact shade strip mirroring the paper's grey scale.
    std::printf("   ");
    for (size_t b = 0; b < kBins; ++b) {
      double f = adr.StepBinFraction(k, b);
      size_t level = static_cast<size_t>(f * (shades.size() - 1) * 2.5);
      level = std::min(level, shades.size() - 1);
      std::printf("%c", shades[level]);
    }
    std::printf("\n");
  }

  // Shape checks: by 2020 the distribution concentrates at low ADR.
  double low_mass = final_fractions[0] + final_fractions[1];
  double high_mass = final_fractions[kBins - 1] + final_fractions[kBins - 2];
  std::printf("\nshape check: final mass in ADR < 0.2 is dominant: %.3f\n",
              low_mass);
  std::printf("shape check: final mass in ADR > 0.8 is small:    %.3f\n",
              high_mass);
  std::printf("verdict: %s\n",
              (low_mass > 0.6 && high_mass < 0.2) ? "matches Figure 5 shape"
                                                  : "MISMATCH");
  return 0;
}
