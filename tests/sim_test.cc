// Unit tests for the sim module: multi-trial aggregation of the credit
// scenario, the ensemble-control (loss of ergodicity) experiments, and
// text tables.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "credit/credit_loop.h"
#include "credit/race.h"
#include "sim/credit_scenario.h"
#include "sim/ensemble_control.h"
#include "sim/experiment.h"
#include "sim/text_table.h"
#include "stats/adr_accumulator.h"
#include "stats/aggregate.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace {

// Three trials of 100 users through RunExperiment, with the trials'
// credit records.
struct SmallCreditRun {
  sim::ExperimentResult result;
  std::vector<credit::CreditLoopResult> trials;
};

SmallCreditRun RunSmallCredit(bool keep_raw_series, size_t impact_bins = 64) {
  sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 100;
  scenario_options.keep_raw_series = keep_raw_series;
  sim::CreditScenario scenario(scenario_options);
  scenario.set_collect_trial_records(true);
  sim::ExperimentOptions options;
  options.num_trials = 3;
  options.master_seed = 9;
  options.impact_bins = impact_bins;
  SmallCreditRun run;
  run.result = sim::RunExperiment(&scenario, options);
  run.trials = scenario.TakeTrialRecords();
  return run;
}

TEST(MultiTrialTest, ShapesAndStreamingPool) {
  const SmallCreditRun run = RunSmallCredit(false);
  const sim::ExperimentResult& result = run.result;
  EXPECT_EQ(result.trials.size(), 3u);
  EXPECT_EQ(run.trials.size(), 3u);
  EXPECT_EQ(result.step_labels.size(), 19u);
  EXPECT_EQ(result.group_envelopes.size(), credit::kNumRaces);
  EXPECT_EQ(result.group_envelopes[0].mean.size(), 19u);
  // By default no raw per-user series is materialized anywhere — the
  // pooled distribution lives in the streaming accumulator only.
  for (const auto& trial : run.trials) {
    EXPECT_TRUE(trial.user_adr.empty());
  }
  ASSERT_FALSE(result.pooled_impact.empty());
  EXPECT_EQ(result.pooled_impact.num_steps(), 19u);
  EXPECT_EQ(result.pooled_impact.num_groups(), credit::kNumRaces);
  for (size_t k = 0; k < 19; ++k) {
    EXPECT_EQ(result.pooled_impact.StepCount(k), 300);  // 3 trials x 100.
  }
}

TEST(MultiTrialTest, KeepRawSeriesOptInPoolsEverySeries) {
  const SmallCreditRun run = RunSmallCredit(true);
  for (const auto& trial : run.trials) {
    EXPECT_EQ(trial.user_adr.size(), 100u);
    EXPECT_EQ(trial.races.size(), 100u);
  }
}

TEST(MultiTrialTest, AccumulatorMatchesRawPooledSeries) {
  // The streaming accumulator must agree with the raw Figures 4/5 pool:
  // same per-(race, year) counts, moments, extremes, and bin fractions.
  const SmallCreditRun run = RunSmallCredit(true, 10);
  const stats::AdrAccumulator& adr = run.result.pooled_impact;
  std::vector<std::vector<double>> pooled_user_adr;
  std::vector<credit::Race> pooled_races;
  for (const credit::CreditLoopResult& trial : run.trials) {
    pooled_user_adr.insert(pooled_user_adr.end(), trial.user_adr.begin(),
                           trial.user_adr.end());
    pooled_races.insert(pooled_races.end(), trial.races.begin(),
                        trial.races.end());
  }

  for (size_t k = 0; k < run.result.step_labels.size(); ++k) {
    for (size_t r = 0; r < credit::kNumRaces; ++r) {
      stats::RunningStats reference;
      for (size_t i = 0; i < pooled_user_adr.size(); ++i) {
        if (pooled_races[i] == static_cast<credit::Race>(r)) {
          reference.Add(pooled_user_adr[i][k]);
        }
      }
      EXPECT_EQ(adr.count(k, r), reference.count());
      if (reference.count() == 0) continue;
      EXPECT_NEAR(adr.stats(k, r).Mean(), reference.Mean(), 1e-9);
      EXPECT_NEAR(adr.stats(k, r).StdDev(), reference.StdDev(), 1e-9);
      EXPECT_DOUBLE_EQ(adr.stats(k, r).Min(), reference.Min());
      EXPECT_DOUBLE_EQ(adr.stats(k, r).Max(), reference.Max());
      EXPECT_DOUBLE_EQ(adr.ApproxQuantile(k, r, 0.0), reference.Min());
      EXPECT_DOUBLE_EQ(adr.ApproxQuantile(k, r, 1.0), reference.Max());
    }
    // Race-blind density row vs a histogram over the raw cross-section.
    stats::Histogram histogram(0.0, 1.0, 10);
    histogram.AddAll(stats::CrossSection(pooled_user_adr, k));
    for (size_t b = 0; b < 10; ++b) {
      EXPECT_EQ(adr.StepBinCount(k, b), histogram.count(b));
      EXPECT_DOUBLE_EQ(adr.StepBinFraction(k, b), histogram.Fraction(b));
    }
  }
}

TEST(MultiTrialTest, TrialsUseDistinctSeeds) {
  const SmallCreditRun run = RunSmallCredit(true);
  EXPECT_NE(run.trials[0].user_adr, run.trials[1].user_adr);
  EXPECT_NE(run.trials[1].user_adr, run.trials[2].user_adr);
}

TEST(MultiTrialTest, EnvelopeMeanLiesWithinTrialRange) {
  const sim::ExperimentResult result = RunSmallCredit(false).result;
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    for (size_t k = 0; k < result.step_labels.size(); ++k) {
      double lo = result.trials[0].group_impact[r][k];
      double hi = lo;
      for (const auto& trial : result.trials) {
        lo = std::min(lo, trial.group_impact[r][k]);
        hi = std::max(hi, trial.group_impact[r][k]);
      }
      EXPECT_GE(result.group_envelopes[r].mean[k], lo - 1e-12);
      EXPECT_LE(result.group_envelopes[r].mean[k], hi + 1e-12);
    }
  }
}

// --- Ensemble control: the Section VI demonstrations -------------------------

sim::EnsembleOptions DefaultEnsemble() {
  sim::EnsembleOptions options;
  options.num_agents = 10;
  options.target_fraction = 0.5;
  options.steps = 20000;
  options.burn_in = 2000;
  return options;
}

std::vector<bool> Pattern(size_t n, size_t ones_prefix) {
  std::vector<bool> on(n, false);
  for (size_t i = 0; i < ones_prefix && i < n; ++i) on[i] = true;
  return on;
}

TEST(EnsembleControlTest, StableRandomizedRegulatesAggregate) {
  rng::Random random(41);
  sim::EnsembleRunResult result = sim::RunEnsembleControl(
      sim::EnsembleControllerKind::kStableRandomized, DefaultEnsemble(),
      Pattern(10, 0), 0.5, &random);
  EXPECT_NEAR(result.aggregate_average, 0.5, 0.02);
}

TEST(EnsembleControlTest, StableRandomizedGivesEqualImpact) {
  rng::Random random(42);
  sim::EnsembleRunResult result = sim::RunEnsembleControl(
      sim::EnsembleControllerKind::kStableRandomized, DefaultEnsemble(),
      Pattern(10, 0), 0.5, &random);
  // Every agent's long-run average matches the target: the r_i coincide.
  for (double r : result.per_agent_average) EXPECT_NEAR(r, 0.5, 0.03);
  EXPECT_LT(stats::CoincidenceGap(result.per_agent_average), 0.05);
}

TEST(EnsembleControlTest, StableRandomizedIsInitialConditionIndependent) {
  rng::Random random_a(43), random_b(44);
  sim::EnsembleRunResult from_none = sim::RunEnsembleControl(
      sim::EnsembleControllerKind::kStableRandomized, DefaultEnsemble(),
      Pattern(10, 0), 0.5, &random_a);
  sim::EnsembleRunResult from_all = sim::RunEnsembleControl(
      sim::EnsembleControllerKind::kStableRandomized, DefaultEnsemble(),
      Pattern(10, 10), 0.5, &random_b);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(from_none.per_agent_average[i],
                from_all.per_agent_average[i], 0.05);
  }
}

TEST(EnsembleControlTest, IntegralHysteresisRegulatesAggregate) {
  rng::Random random(45);
  sim::EnsembleRunResult result = sim::RunEnsembleControl(
      sim::EnsembleControllerKind::kIntegralHysteresis, DefaultEnsemble(),
      Pattern(10, 5), 0.5, &random);
  // The integrator does its job on the aggregate...
  EXPECT_NEAR(result.aggregate_average, 0.5, 0.05);
}

TEST(EnsembleControlTest, IntegralHysteresisDependsOnInitialConditions) {
  // ...but the per-agent allocation is frozen by the deadband: starting
  // from "first half ON" vs "second half ON" yields permanently different
  // per-agent averages — the loss of ergodicity under integral action.
  rng::Random random_a(46), random_b(47);
  sim::EnsembleOptions options = DefaultEnsemble();
  std::vector<bool> first_half = Pattern(10, 5);
  std::vector<bool> second_half(10, false);
  for (size_t i = 5; i < 10; ++i) second_half[i] = true;

  sim::EnsembleRunResult run_a = sim::RunEnsembleControl(
      sim::EnsembleControllerKind::kIntegralHysteresis, options, first_half,
      0.5, &random_a);
  sim::EnsembleRunResult run_b = sim::RunEnsembleControl(
      sim::EnsembleControllerKind::kIntegralHysteresis, options, second_half,
      0.5, &random_b);

  // Agent 0 is ON forever in run A and OFF forever in run B.
  EXPECT_GT(run_a.per_agent_average[0], 0.9);
  EXPECT_LT(run_b.per_agent_average[0], 0.1);
  // Both runs regulate the aggregate equally well.
  EXPECT_NEAR(run_a.aggregate_average, run_b.aggregate_average, 0.05);
}

TEST(EnsembleControlTest, IntegralHysteresisViolatesEqualImpact) {
  rng::Random random(48);
  sim::EnsembleRunResult result = sim::RunEnsembleControl(
      sim::EnsembleControllerKind::kIntegralHysteresis, DefaultEnsemble(),
      Pattern(10, 5), 0.5, &random);
  // Half the agents average ~1, half ~0: maximal coincidence gap.
  EXPECT_GT(stats::CoincidenceGap(result.per_agent_average), 0.9);
}

TEST(EnsembleControlTest, AggregateSeriesHasRequestedLength) {
  rng::Random random(49);
  sim::EnsembleOptions options = DefaultEnsemble();
  options.steps = 500;
  options.burn_in = 50;
  sim::EnsembleRunResult result = sim::RunEnsembleControl(
      sim::EnsembleControllerKind::kStableRandomized, options,
      Pattern(10, 0), 0.5, &random);
  EXPECT_EQ(result.aggregate_fraction.size(), 500u);
}

// --- Text tables ---------------------------------------------------------------

TEST(TextTableTest, RendersHeaderAndRows) {
  sim::TextTable table({"Year", "ADR"});
  table.AddRow({"2002", "0.05"});
  table.AddRow({"2003", "0.04"});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("Year"), std::string::npos);
  EXPECT_NE(rendered.find("2003"), std::string::npos);
  // Header + separator + 2 rows = 4 lines.
  int lines = 0;
  for (char c : rendered) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);
}

TEST(TextTableTest, CellFormatting) {
  EXPECT_EQ(sim::TextTable::Cell(3.14159, 2), "3.14");
  EXPECT_EQ(sim::TextTable::Cell(42), "42");
}

}  // namespace
}  // namespace eqimpact
