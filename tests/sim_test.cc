// Unit tests for the sim module: multi-trial aggregation, the
// ensemble-control (loss of ergodicity) experiments, and text tables.

#include <vector>

#include <gtest/gtest.h>

#include "sim/ensemble_control.h"
#include "sim/multi_trial.h"
#include "sim/text_table.h"
#include "stats/adr_accumulator.h"
#include "stats/aggregate.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace {

sim::MultiTrialOptions SmallMultiTrial() {
  sim::MultiTrialOptions options;
  options.loop.num_users = 100;
  options.num_trials = 3;
  options.master_seed = 9;
  return options;
}

TEST(MultiTrialTest, ShapesAndStreamingPool) {
  sim::MultiTrialResult result = sim::RunMultiTrial(SmallMultiTrial());
  EXPECT_EQ(result.trials.size(), 3u);
  EXPECT_EQ(result.years.size(), 19u);
  EXPECT_EQ(result.race_envelopes.size(), credit::kNumRaces);
  EXPECT_EQ(result.race_envelopes[0].mean.size(), 19u);
  // By default no raw per-user series is materialized anywhere — the
  // pooled distribution lives in the streaming accumulator only.
  EXPECT_TRUE(result.pooled_user_adr.empty());
  EXPECT_TRUE(result.pooled_races.empty());
  for (const auto& trial : result.trials) {
    EXPECT_TRUE(trial.user_adr.empty());
  }
  ASSERT_FALSE(result.pooled_adr.empty());
  EXPECT_EQ(result.pooled_adr.num_steps(), 19u);
  EXPECT_EQ(result.pooled_adr.num_groups(), credit::kNumRaces);
  for (size_t k = 0; k < 19; ++k) {
    EXPECT_EQ(result.pooled_adr.StepCount(k), 300);  // 3 trials x 100.
  }
}

TEST(MultiTrialTest, KeepRawSeriesOptInPoolsEverySeries) {
  sim::MultiTrialOptions options = SmallMultiTrial();
  options.keep_raw_series = true;
  sim::MultiTrialResult result = sim::RunMultiTrial(options);
  EXPECT_EQ(result.pooled_user_adr.size(), 300u);  // 3 trials x 100 users.
  EXPECT_EQ(result.pooled_races.size(), 300u);
  EXPECT_EQ(result.trials[0].user_adr.size(), 100u);
}

TEST(MultiTrialTest, AccumulatorMatchesRawPooledSeries) {
  // The streaming accumulator must agree with the raw Figures 4/5 pool:
  // same per-(race, year) counts, moments, extremes, and bin fractions.
  sim::MultiTrialOptions options = SmallMultiTrial();
  options.keep_raw_series = true;
  options.adr_bins = 10;
  sim::MultiTrialResult result = sim::RunMultiTrial(options);
  const stats::AdrAccumulator& adr = result.pooled_adr;

  for (size_t k = 0; k < result.years.size(); ++k) {
    for (size_t r = 0; r < credit::kNumRaces; ++r) {
      stats::RunningStats reference;
      for (size_t i = 0; i < result.pooled_user_adr.size(); ++i) {
        if (result.pooled_races[i] == static_cast<credit::Race>(r)) {
          reference.Add(result.pooled_user_adr[i][k]);
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
    histogram.AddAll(stats::CrossSection(result.pooled_user_adr, k));
    for (size_t b = 0; b < 10; ++b) {
      EXPECT_EQ(adr.StepBinCount(k, b), histogram.count(b));
      EXPECT_DOUBLE_EQ(adr.StepBinFraction(k, b), histogram.Fraction(b));
    }
  }
}

TEST(MultiTrialTest, TrialsUseDistinctSeeds) {
  sim::MultiTrialOptions options = SmallMultiTrial();
  options.keep_raw_series = true;
  sim::MultiTrialResult result = sim::RunMultiTrial(options);
  EXPECT_NE(result.trials[0].user_adr, result.trials[1].user_adr);
  EXPECT_NE(result.trials[1].user_adr, result.trials[2].user_adr);
}

TEST(MultiTrialTest, EnvelopeMeanLiesWithinTrialRange) {
  sim::MultiTrialResult result = sim::RunMultiTrial(SmallMultiTrial());
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    for (size_t k = 0; k < result.years.size(); ++k) {
      double lo = result.trials[0].race_adr[r][k];
      double hi = lo;
      for (const auto& trial : result.trials) {
        lo = std::min(lo, trial.race_adr[r][k]);
        hi = std::max(hi, trial.race_adr[r][k]);
      }
      EXPECT_GE(result.race_envelopes[r].mean[k], lo - 1e-12);
      EXPECT_LE(result.race_envelopes[r].mean[k], hi + 1e-12);
    }
  }
}

TEST(MultiTrialTest, DeterministicInMasterSeed) {
  sim::MultiTrialResult a = sim::RunMultiTrial(SmallMultiTrial());
  sim::MultiTrialResult b = sim::RunMultiTrial(SmallMultiTrial());
  for (size_t t = 0; t < a.trials.size(); ++t) {
    EXPECT_EQ(a.trials[t].user_adr, b.trials[t].user_adr);
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
