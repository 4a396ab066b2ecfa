// End-to-end reproduction of the paper's Section VII numerical
// illustration, as a library consumer would run it: five trials of 1000
// households over 2002-2020, race-wise and user-wise average default
// rates, the fitted scorecards, and the equal-treatment / equal-impact
// audits with their verdicts.

#include <cstdio>
#include <vector>

#include "core/auditors.h"
#include "credit/credit_loop.h"
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
  std::printf("Closed-loop credit scoring, Section VII protocol\n");
  std::printf("================================================\n\n");

  eqimpact::sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 1000;
  // The scorecard and the per-user audit below read trial 1's record,
  // and the audit its raw ADR series, which the streaming default does
  // not materialize.
  scenario_options.keep_raw_series = true;
  eqimpact::sim::CreditScenario scenario(scenario_options);
  scenario.set_collect_trial_records(true);
  eqimpact::sim::ExperimentOptions options;
  options.num_trials = 5;
  options.master_seed = 42;
  eqimpact::sim::ExperimentResult result =
      eqimpact::sim::RunExperiment(&scenario, options);
  const std::vector<eqimpact::credit::CreditLoopResult> trials =
      scenario.TakeTrialRecords();

  // Race-wise trajectories (Figure 3's data).
  eqimpact::sim::TextTable adr_table(
      {"Year", "BLACK", "WHITE", "ASIAN"});
  for (size_t k = 0; k < result.step_labels.size(); ++k) {
    adr_table.AddRow(
        {result.step_labels[k],
         eqimpact::sim::TextTable::Cell(result.group_envelopes[0].mean[k], 4),
         eqimpact::sim::TextTable::Cell(result.group_envelopes[1].mean[k], 4),
         eqimpact::sim::TextTable::Cell(result.group_envelopes[2].mean[k],
                                        4)});
  }
  std::printf("Race-wise ADR (mean over trials):\n%s\n",
              adr_table.ToString().c_str());

  // The scorecard the first trial ended up with.
  const auto& cards = trials[0].scorecards;
  if (!cards.empty()) {
    std::printf("Final scorecard of trial 1 (year %d): "
                "History %.2f, Income %+.2f, cut-off %.1f\n\n",
                cards.back().year, cards.back().history_weight,
                cards.back().income_weight, scenario_options.loop.cutoff);
  }

  // Equal-impact audit across races (Definition 3 on the race aggregate).
  std::vector<std::vector<double>> race_means;
  for (size_t r = 0; r < kNumRaces; ++r) {
    race_means.push_back(result.group_envelopes[r].mean);
  }
  eqimpact::core::EqualImpactCriteria criteria;
  criteria.settle_window = 5;
  criteria.settle_tolerance = 0.02;
  criteria.coincidence_tolerance = 0.05;
  criteria.series_are_running_averages = true;  // ADR is an average already.
  eqimpact::core::EqualImpactReport impact =
      eqimpact::core::AuditEqualImpact(race_means, criteria);
  std::printf("Equal impact across races:\n");
  for (size_t r = 0; r < kNumRaces; ++r) {
    std::printf("  r(%s) = %.4f%s\n",
                RaceName(static_cast<Race>(r)).c_str(), impact.limits[r],
                impact.settled[r] ? "" : "  (not settled)");
  }
  std::printf("  coincidence gap %.4f -> equal impact: %s\n\n",
              impact.coincidence_gap, impact.equal_impact ? "YES" : "NO");

  // Initial-condition independence: audit the race aggregates across the
  // five independent trials (each trial is a fresh cohort).
  std::vector<std::vector<std::vector<double>>> runs;
  for (const auto& trial : result.trials) {
    runs.push_back(trial.group_impact);
  }
  eqimpact::core::InitialConditionReport independence =
      eqimpact::core::AuditInitialConditionIndependence(runs, 0.03);
  std::printf("Initial-condition independence across the %zu trials: "
              "max gap %.4f -> %s\n",
              runs.size(), independence.max_gap,
              independence.independent ? "independent" : "DEPENDENT");

  // Equal treatment (Definition 1) on the user-wise decisions is *not*
  // expected to hold — responses are stochastic — which is exactly the
  // paper's distinction. Show it on the first trial's user ADR series.
  eqimpact::core::EqualTreatmentReport treatment =
      eqimpact::core::AuditEqualTreatment(trials[0].user_adr, 1e-9);
  std::printf("\nEqual treatment (constant identical outcomes) on user "
              "series: %s (max gap %.3f)\n",
              treatment.constant_action ? "holds" : "does not hold",
              treatment.max_gap);
  std::printf("-> equal treatment and equal impact are different "
              "properties; the loop delivers the latter.\n");
  return 0;
}
