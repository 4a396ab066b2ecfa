// Reproduces paper Figure 3: race-wise average default rates ADR_s(k)
// over 2002-2020, mean +/- one standard deviation across five trials of
// N = 1000 users each, with the paper's full protocol (two approve-all
// warm-up years, yearly scorecard retraining, cut-off 0.4).
//
// Expected shape (paper): all three races' curves start at a low level,
// are perturbed over the first years, and "dwindle to a similar level"
// in the band ~0.02-0.08, with overlapping error shades.

#include <cstdio>
#include <vector>

#include "credit/race.h"
#include "sim/credit_scenario.h"
#include "sim/experiment.h"
#include "sim/text_table.h"
#include "stats/time_series.h"

namespace {

using eqimpact::credit::kNumRaces;
using eqimpact::credit::Race;
using eqimpact::credit::RaceName;

}  // namespace

int main() {
  std::printf(
      "=== Figure 3: race-wise ADR_s(k), mean +/- std over 5 trials ===\n\n");

  eqimpact::sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 1000;
  eqimpact::sim::CreditScenario scenario(scenario_options);
  eqimpact::sim::ExperimentOptions options;
  options.num_trials = 5;
  options.master_seed = 42;
  eqimpact::sim::ExperimentResult result =
      eqimpact::sim::RunExperiment(&scenario, options);

  eqimpact::sim::TextTable table(
      {"Year", "BLACK mean", "BLACK std", "WHITE mean", "WHITE std",
       "ASIAN mean", "ASIAN std"});
  for (size_t k = 0; k < result.step_labels.size(); ++k) {
    std::vector<std::string> row{result.step_labels[k]};
    for (size_t r = 0; r < kNumRaces; ++r) {
      row.push_back(eqimpact::sim::TextTable::Cell(
          result.group_envelopes[r].mean[k], 4));
      row.push_back(eqimpact::sim::TextTable::Cell(
          result.group_envelopes[r].std_dev[k], 4));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  // Shape checks against the paper's description.
  std::vector<double> final_levels;
  bool all_in_band = true;
  for (size_t r = 0; r < kNumRaces; ++r) {
    double level = result.group_envelopes[r].mean.back();
    final_levels.push_back(level);
    all_in_band = all_in_band && level > 0.0 && level < 0.12;
    std::printf("final ADR %-12s = %.4f\n",
                RaceName(static_cast<Race>(r)).c_str(), level);
  }
  double gap = eqimpact::stats::CoincidenceGap(final_levels);
  std::printf("\nshape check: final levels in the low band (<0.12): %s\n",
              all_in_band ? "yes" : "NO");
  std::printf("shape check: race curves coincide (gap %.4f < 0.05): %s\n",
              gap, gap < 0.05 ? "yes" : "NO");

  bool settled = true;
  for (size_t r = 0; r < kNumRaces; ++r) {
    settled = settled && eqimpact::stats::HasSettled(
                             result.group_envelopes[r].mean, 5, 0.02);
  }
  std::printf("shape check: all curves settled over the last 5 years: %s\n",
              settled ? "yes" : "NO");
  return 0;
}
