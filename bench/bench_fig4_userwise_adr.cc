// Reproduces paper Figure 4: the user-wise average default rates
// ADR_i(k) for all users from five trials (5 x 1000 trajectories),
// summarised per race as a quantile fan (min / 5% / median / 95% / max),
// since the paper plots the raw curve bundle coloured by race.
//
// The fan is read from the streaming pooled-ADR accumulator (min/max
// exact, inner quantiles interpolated from its 256-bin histogram), so
// the bench runs in memory bounded by the histogram — the same code path
// scales to 10^6-user cohorts without materializing a single per-user
// series.
//
// Expected shape (paper): the bundle starts spread over [0, 1] right
// after the approve-all warm-up (low-income users default immediately,
// giving ADR 1 for some), then the curves "dwindle to a similar level":
// the bundle tightens towards a low common band by 2020.

#include <cstdio>
#include <vector>

#include "credit/race.h"
#include "sim/credit_scenario.h"
#include "sim/experiment.h"
#include "sim/text_table.h"
#include "stats/adr_accumulator.h"

namespace {

using eqimpact::credit::kNumRaces;
using eqimpact::credit::Race;
using eqimpact::credit::RaceName;

}  // namespace

int main() {
  std::printf(
      "=== Figure 4: user-wise ADR_i(k) bundle (5 trials x 1000 users) "
      "===\n\n");

  eqimpact::sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 1000;
  eqimpact::sim::CreditScenario scenario(scenario_options);
  eqimpact::sim::ExperimentOptions options;
  options.num_trials = 5;
  options.master_seed = 42;
  options.impact_bins = 256;  // Fine bins: quantile error <= 1/256.
  eqimpact::sim::ExperimentResult result =
      eqimpact::sim::RunExperiment(&scenario, options);
  const eqimpact::stats::AdrAccumulator& adr = result.pooled_impact;

  for (size_t r = 0; r < kNumRaces; ++r) {
    std::printf("%s (%lld trajectories)\n",
                RaceName(static_cast<Race>(r)).c_str(),
                static_cast<long long>(adr.count(0, r)));
    eqimpact::sim::TextTable table(
        {"Year", "min", "q05", "median", "q95", "max"});
    for (size_t k = 0; k < result.step_labels.size(); ++k) {
      table.AddRow({result.step_labels[k],
                    eqimpact::sim::TextTable::Cell(
                        adr.ApproxQuantile(k, r, 0.0), 3),
                    eqimpact::sim::TextTable::Cell(
                        adr.ApproxQuantile(k, r, 0.05), 3),
                    eqimpact::sim::TextTable::Cell(
                        adr.ApproxQuantile(k, r, 0.5), 3),
                    eqimpact::sim::TextTable::Cell(
                        adr.ApproxQuantile(k, r, 0.95), 3),
                    eqimpact::sim::TextTable::Cell(
                        adr.ApproxQuantile(k, r, 1.0), 3)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  // Shape checks: the 5%-95% band tightens from the early years to 2020,
  // and the final median is low for every race.
  bool tightens = true;
  bool low_median = true;
  const size_t early = 2;
  const size_t late = result.step_labels.size() - 1;
  for (size_t r = 0; r < kNumRaces; ++r) {
    double early_band = adr.ApproxQuantile(early, r, 0.95) -
                        adr.ApproxQuantile(early, r, 0.05);
    double late_band = adr.ApproxQuantile(late, r, 0.95) -
                       adr.ApproxQuantile(late, r, 0.05);
    tightens = tightens && late_band <= early_band;
    low_median = low_median && adr.ApproxQuantile(late, r, 0.5) < 0.12;
  }
  std::printf("shape check: 5%%-95%% band tightens from 2004 to 2020: %s\n",
              tightens ? "yes" : "NO");
  std::printf("shape check: final median ADR low for every race:     %s\n",
              low_median ? "yes" : "NO");
  return 0;
}
