// Tests of the generic scenario/experiment/sweep API: bitwise
// equivalence of RunExperiment over a CreditScenario with the original
// credit-only multi-trial function, market/ensemble multi-trial determinism
// at 1/2/8 trial threads, sweep-grid reproducibility, registry
// round-trips, and the equalizer-intervention sweep reproducing the
// paper's qualitative market result.

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "credit/credit_loop.h"
#include "credit/race.h"
#include "runtime/parallel_for.h"
#include "runtime/seed_sequence.h"
#include "sim/certify.h"
#include "sim/credit_scenario.h"
#include "sim/ensemble_scenario.h"
#include "sim/experiment.h"
#include "sim/market_scenario.h"
#include "sim/scenario_registry.h"
#include "sim/sweep.h"
#include "stats/adr_accumulator.h"
#include "stats/aggregate.h"

namespace eqimpact {
namespace {

// --- CreditScenario: bitwise regression vs the pre-scenario driver ----------

/// What the original credit-only multi-trial function returned.
struct LegacyResult {
  std::vector<credit::CreditLoopResult> trials;
  std::vector<stats::SeriesEnvelope> race_envelopes;
  stats::AdrAccumulator pooled_adr;
};

/// The original credit-only multi-trial function's body, verbatim
/// semantics: credit-specific and sequential. RunExperiment over a
/// CreditScenario must reproduce it bit for bit — this is the
/// regression guard for the credit digests pinned in golden_test.
LegacyResult LegacyCreditTrials(
    const sim::CreditScenarioOptions& scenario_options,
    const sim::ExperimentOptions& options) {
  LegacyResult result;
  const credit::CreditLoopOptions& loop = scenario_options.loop;
  const size_t num_years =
      static_cast<size_t>(loop.last_year - loop.first_year) + 1;
  result.trials.resize(options.num_trials);
  std::vector<stats::AdrAccumulator> trial_adr(
      options.num_trials,
      stats::AdrAccumulator(credit::kNumRaces, num_years,
                            options.impact_bins));
  const runtime::SeedSequence seeds(options.master_seed);
  for (size_t t = 0; t < options.num_trials; ++t) {
    credit::CreditLoopOptions loop_options = loop;
    loop_options.seed = seeds.Seed(t);
    loop_options.keep_user_adr = scenario_options.keep_raw_series;
    credit::CreditScoringLoop trial_loop(loop_options);
    stats::AdrAccumulator& adr = trial_adr[t];
    result.trials[t] =
        trial_loop.Run([&adr](const credit::YearSnapshot& snapshot) {
          adr.AddCrossSection(snapshot.step, snapshot.user_adr,
                              snapshot.race_ids);
        });
  }
  for (stats::AdrAccumulator& adr : trial_adr) {
    result.pooled_adr.Merge(adr);
  }
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    std::vector<std::vector<double>> across_trials;
    for (const credit::CreditLoopResult& trial : result.trials) {
      across_trials.push_back(trial.race_adr[r]);
    }
    result.race_envelopes.push_back(stats::AggregateEnvelope(across_trials));
  }
  return result;
}

void ExpectAccumulatorsBitwiseEqual(const stats::AdrAccumulator& a,
                                    const stats::AdrAccumulator& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  ASSERT_EQ(a.num_steps(), b.num_steps());
  ASSERT_EQ(a.num_bins(), b.num_bins());
  for (size_t k = 0; k < a.num_steps(); ++k) {
    for (size_t g = 0; g < a.num_groups(); ++g) {
      EXPECT_EQ(a.count(k, g), b.count(k, g));
      EXPECT_EQ(a.stats(k, g).Mean(), b.stats(k, g).Mean());
      EXPECT_EQ(a.stats(k, g).Variance(), b.stats(k, g).Variance());
      for (size_t bin = 0; bin < a.num_bins(); ++bin) {
        EXPECT_EQ(a.bin_count(k, g, bin), b.bin_count(k, g, bin));
      }
    }
  }
}

void ExpectExperimentMatchesLegacy(
    const sim::CreditScenarioOptions& scenario_options,
    const sim::ExperimentOptions& options, const LegacyResult& legacy) {
  sim::CreditScenario scenario(scenario_options);
  scenario.set_collect_trial_records(true);
  const sim::ExperimentResult result = sim::RunExperiment(&scenario, options);
  const std::vector<credit::CreditLoopResult> trials =
      scenario.TakeTrialRecords();

  ASSERT_EQ(legacy.trials.size(), trials.size());
  for (size_t t = 0; t < legacy.trials.size(); ++t) {
    EXPECT_EQ(legacy.trials[t].user_adr, trials[t].user_adr);
    EXPECT_EQ(legacy.trials[t].race_adr, trials[t].race_adr);
    EXPECT_EQ(legacy.trials[t].overall_adr, trials[t].overall_adr);
    EXPECT_EQ(legacy.trials[t].race_approval, trials[t].race_approval);
  }
  ASSERT_EQ(legacy.race_envelopes.size(), result.group_envelopes.size());
  for (size_t r = 0; r < legacy.race_envelopes.size(); ++r) {
    EXPECT_EQ(legacy.race_envelopes[r].mean, result.group_envelopes[r].mean);
    EXPECT_EQ(legacy.race_envelopes[r].std_dev,
              result.group_envelopes[r].std_dev);
  }
  ExpectAccumulatorsBitwiseEqual(legacy.pooled_adr, result.pooled_impact);
}

TEST(CreditScenarioTest, ExperimentMatchesLegacyBitwise) {
  // The engine's staged pass (the history fold, the race sums and one
  // accumulator fold per race, each taking the chunks in chunk order as
  // they finish) against the legacy trials' sequential AddCrossSection
  // observer: 17 uneven chunks and one chunk (stages inline), the dense
  // fold (forgetting factor 1, accumulated history) and the hashed one,
  // on 1 to 8 within-trial threads.
  for (const size_t chunk : {size_t{61}, size_t{4096}}) {
    for (const double forgetting : {1.0, 0.9}) {
      for (const bool accumulate : {true, false}) {
        sim::CreditScenarioOptions scenario_options;
        scenario_options.loop.num_users = 1000;
        scenario_options.loop.users_per_chunk = chunk;
        scenario_options.loop.forgetting_factor = forgetting;
        scenario_options.loop.accumulate_history = accumulate;
        scenario_options.keep_raw_series = true;
        sim::ExperimentOptions options;
        options.num_trials = 3;
        options.master_seed = 17;
        options.num_threads = 1;
        const LegacyResult legacy =
            LegacyCreditTrials(scenario_options, options);
        for (const size_t threads : {1u, 2u, 3u, 4u, 8u}) {
          SCOPED_TRACE(testing::Message()
                       << "chunk=" << chunk << " forgetting=" << forgetting
                       << " accumulate=" << accumulate
                       << " threads=" << threads);
          options.trial_threads = threads;
          ExpectExperimentMatchesLegacy(scenario_options, options, legacy);
        }
      }
    }
  }
}

// 16 chunks on 4 loop threads.
sim::CreditScenarioOptions MultiChunkCreditOptions() {
  sim::CreditScenarioOptions options;
  options.loop.num_users = 1000;
  options.loop.users_per_chunk = 64;
  options.loop.num_threads = 4;
  return options;
}

TEST(CreditScenarioTest, StagedTrialResumesBitwiseAtAnotherThreadCount) {
  // A 16-chunk trial checkpointed at 3 threads after year 7 and resumed
  // at 2 from that snapshot, with the accumulator as it stood then,
  // ends bitwise as the uninterrupted run: record and accumulator.
  credit::CreditLoopOptions options = MultiChunkCreditOptions().loop;
  options.seed = 23;
  options.num_threads = 3;
  options.keep_user_adr = false;
  const size_t num_years = 19;
  stats::AdrAccumulator reference_impacts(credit::kNumRaces, num_years, 20);
  options.impacts = &reference_impacts;
  const credit::CreditLoopResult reference =
      credit::CreditScoringLoop(options).Run();

  stats::AdrAccumulator impacts(credit::kNumRaces, num_years, 20);
  stats::AdrAccumulator resumed_impacts;
  std::vector<uint8_t> snapshot;
  options.impacts = &impacts;
  options.checkpoint_sink = [&](size_t years_completed,
                                const std::vector<uint8_t>& state) {
    if (years_completed != 7) return;
    snapshot = state;
    resumed_impacts = impacts;
  };
  credit::CreditScoringLoop(options).Run();
  ASSERT_FALSE(snapshot.empty());

  options.checkpoint_sink = nullptr;
  options.num_threads = 2;
  options.resume_state = &snapshot;
  options.impacts = &resumed_impacts;
  const credit::CreditLoopResult resumed =
      credit::CreditScoringLoop(options).Run();
  EXPECT_EQ(resumed.race_adr, reference.race_adr);
  EXPECT_EQ(resumed.race_approval, reference.race_approval);
  EXPECT_EQ(resumed.overall_adr, reference.overall_adr);
  ExpectAccumulatorsBitwiseEqual(resumed_impacts, reference_impacts);
}

TEST(CreditScenarioTest, MultiChunkParallelDigestIsPinned) {
  // Recorded before the credit year's tail went chunk- and group-parallel
  // (sequential fold, snapshot and cross-section): the same bits on a
  // shared trial pool and on one thread.
  constexpr uint64_t kPinned = 0x3f3125055b120079ULL;
  for (const size_t trial_threads : {size_t{4}, size_t{1}}) {
    sim::CreditScenario scenario(MultiChunkCreditOptions());
    sim::ExperimentOptions options;
    options.num_trials = 3;
    options.master_seed = 17;
    options.num_threads = 1;
    options.trial_threads = trial_threads;
    EXPECT_EQ(sim::ExperimentDigest(sim::RunExperiment(&scenario, options)),
              kPinned)
        << "trial_threads=" << trial_threads;
  }
}

TEST(CreditScenarioTest, SurfacesGroupLabels) {
  sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 60;
  sim::CreditScenario scenario(scenario_options);
  sim::ExperimentOptions options;
  options.num_trials = 2;
  sim::ExperimentResult result = sim::RunExperiment(&scenario, options);
  ASSERT_EQ(result.group_labels.size(), credit::kNumRaces);
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    EXPECT_EQ(result.group_labels[r],
              credit::RaceName(static_cast<credit::Race>(r)));
  }
}

TEST(CreditScenarioTest, SweepableParametersReachTheLoop) {
  sim::CreditScenario scenario;
  EXPECT_TRUE(scenario.SetParameter("cutoff", 0.3));
  EXPECT_TRUE(scenario.SetParameter("num_users", 64.0));
  EXPECT_TRUE(scenario.SetParameter("forgetting_factor", 0.9));
  EXPECT_FALSE(scenario.SetParameter("no_such_parameter", 1.0));
  EXPECT_EQ(scenario.options().loop.num_users, 64u);
  EXPECT_DOUBLE_EQ(scenario.options().loop.cutoff, 0.3);
  EXPECT_DOUBLE_EQ(scenario.options().loop.forgetting_factor, 0.9);
}

// --- Experiment driver: determinism across thread counts --------------------

template <typename MakeScenario>
void ExpectThreadCountInvariance(MakeScenario make_scenario,
                                 size_t num_trials) {
  uint64_t reference = 0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    auto scenario = make_scenario();
    sim::ExperimentOptions options;
    options.num_trials = num_trials;
    options.master_seed = 33;
    options.num_threads = threads;
    sim::ExperimentResult result = RunExperiment(&scenario, options);
    const uint64_t digest = sim::ExperimentDigest(result);
    if (threads == 1) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference) << "threads=" << threads;
    }
  }
}

TEST(ExperimentTest, MarketBitwiseDeterministicAtOneTwoEightThreads) {
  ExpectThreadCountInvariance(
      [] {
        sim::MatchingMarketScenarioOptions options;
        options.market.num_workers = 60;
        options.market.rounds = 80;
        return sim::MatchingMarketScenario(options);
      },
      5);
  // The weighted lottery, the pivoted exploit cut and the batched
  // observer fold (203 rounds end on a batch of three) under concurrent
  // trials of one scenario instance.
  ExpectThreadCountInvariance(
      [] {
        sim::MatchingMarketScenarioOptions options;
        options.market.num_workers = 60;
        options.market.rounds = 203;
        options.market.heterogeneous_skill = true;
        options.skill_classes = 4;
        options.equalizer.strength = 2.0;
        options.equalizer.period = 3;
        return sim::MatchingMarketScenario(options);
      },
      5);
}

TEST(ExperimentTest, EnsembleBitwiseDeterministicAtOneTwoEightThreads) {
  ExpectThreadCountInvariance(
      [] {
        sim::EnsembleScenarioOptions options;
        options.ensemble.num_agents = 12;
        options.ensemble.steps = 150;
        options.ensemble.burn_in = 30;
        return sim::EnsembleScenario(options);
      },
      6);
  // 101 steps end the batched observer fold on a batch of one.
  ExpectThreadCountInvariance(
      [] {
        sim::EnsembleScenarioOptions options;
        options.ensemble.num_agents = 40;
        options.ensemble.steps = 101;
        options.ensemble.burn_in = 10;
        options.initial_on_fraction = 0.3;
        return sim::EnsembleScenario(options);
      },
      6);
}

TEST(ExperimentTest, CreditBitwiseDeterministicAtOneTwoEightThreads) {
  ExpectThreadCountInvariance(
      [] {
        sim::CreditScenarioOptions options;
        options.loop.num_users = 60;
        return sim::CreditScenario(options);
      },
      3);
}

TEST(ExperimentTest, SharedTrialPoolPathIsBitwiseEquivalent) {
  // Sequential trial dispatch with trial_threads > 1 routes every
  // credit trial through one shared persistent pool
  // (TrialContext::pool -> CreditLoopOptions::pool); the output must
  // not move relative to parallel dispatch or scenario-default threads.
  auto run = [](size_t num_threads, size_t trial_threads) {
    sim::CreditScenarioOptions options;
    options.loop.num_users = 60;
    sim::CreditScenario scenario(options);
    sim::ExperimentOptions experiment_options;
    experiment_options.num_trials = 3;
    experiment_options.master_seed = 11;
    experiment_options.num_threads = num_threads;
    experiment_options.trial_threads = trial_threads;
    return sim::ExperimentDigest(RunExperiment(&scenario, experiment_options));
  };
  const uint64_t reference = run(1, 0);
  EXPECT_EQ(run(1, 2), reference);  // Shared-pool path.
  EXPECT_EQ(run(2, 2), reference);  // Parallel dispatch, per-trial pools.
}

TEST(ExperimentTest, MarketExperimentShapesAndPooling) {
  sim::MatchingMarketScenarioOptions scenario_options;
  scenario_options.market.num_workers = 50;
  scenario_options.market.rounds = 40;
  sim::MatchingMarketScenario scenario(scenario_options);
  sim::ExperimentOptions options;
  options.num_trials = 4;
  sim::ExperimentResult result = RunExperiment(&scenario, options);

  EXPECT_EQ(result.scenario, "market");
  ASSERT_EQ(result.group_labels.size(), 1u);
  EXPECT_EQ(result.step_labels.size(), 40u);
  ASSERT_EQ(result.group_envelopes.size(), 1u);
  EXPECT_EQ(result.group_envelopes[0].mean.size(), 40u);
  ASSERT_EQ(result.metric_names.size(), 3u);
  EXPECT_EQ(result.metric_stats[0].count(), 4);
  // Every round pools one observation per worker per trial.
  for (size_t k = 0; k < 40; ++k) {
    EXPECT_EQ(result.pooled_impact.StepCount(k), 4 * 50);
  }
  // Mean running match rate at the final round = the capacity fraction.
  EXPECT_NEAR(result.summary.pooled_mean, 0.5, 0.02);
}

TEST(ExperimentTest, EnsembleControllersSeparateTheInitialConditionGroups) {
  // Stable randomized broadcast: the two initial-condition classes
  // converge (equal impact); integral hysteresis freezes them apart.
  sim::EnsembleScenarioOptions options;
  options.ensemble.num_agents = 10;
  options.ensemble.steps = 400;
  options.ensemble.burn_in = 40;
  sim::ExperimentOptions experiment_options;
  experiment_options.num_trials = 4;

  options.kind = sim::EnsembleControllerKind::kStableRandomized;
  sim::EnsembleScenario stable(options);
  sim::ExperimentResult stable_result =
      RunExperiment(&stable, experiment_options);

  options.kind = sim::EnsembleControllerKind::kIntegralHysteresis;
  sim::EnsembleScenario integral(options);
  sim::ExperimentResult integral_result =
      RunExperiment(&integral, experiment_options);

  EXPECT_LT(stable_result.summary.group_gap, 0.1);
  EXPECT_GT(integral_result.summary.group_gap, 0.8);
}

// --- Registry ----------------------------------------------------------------

TEST(ScenarioRegistryTest, BuiltinsRoundTrip) {
  const std::vector<std::string> names = sim::RegisteredScenarioNames();
  ASSERT_GE(names.size(), 3u);
  for (const std::string expected : {"credit", "ensemble", "market"}) {
    bool found = false;
    for (const std::string& name : names) found = found || name == expected;
    EXPECT_TRUE(found) << expected;
  }
  for (const std::string name : {"credit", "ensemble", "market"}) {
    std::unique_ptr<sim::Scenario> scenario = sim::CreateScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name(), name);
    EXPECT_FALSE(scenario->GroupLabels().empty());
    EXPECT_FALSE(scenario->StepLabels().empty());
    EXPECT_FALSE(scenario->ParameterNames().empty());
    // Every advertised parameter is actually settable... and a bogus
    // one is rejected.
    for (const std::string& parameter : scenario->ParameterNames()) {
      EXPECT_TRUE(scenario->SetParameter(parameter, 1.0))
          << name << "." << parameter;
    }
    EXPECT_FALSE(scenario->SetParameter("definitely_not_a_parameter", 1.0));
  }
}

TEST(ScenarioRegistryTest, CreatedScenariosRunThroughTheDriver) {
  for (const std::string name : {"credit", "ensemble", "market"}) {
    std::unique_ptr<sim::Scenario> scenario = sim::CreateScenario(name);
    ASSERT_NE(scenario, nullptr);
    // Shrink each scenario to a fast smoke size through the generic
    // parameter surface alone.
    if (name == "credit") {
      ASSERT_TRUE(scenario->SetParameter("num_users", 50));
    } else if (name == "market") {
      ASSERT_TRUE(scenario->SetParameter("num_workers", 40));
      ASSERT_TRUE(scenario->SetParameter("rounds", 30));
    } else {
      ASSERT_TRUE(scenario->SetParameter("num_agents", 8));
      ASSERT_TRUE(scenario->SetParameter("steps", 60));
    }
    sim::ExperimentOptions options;
    options.num_trials = 2;
    sim::ExperimentResult result = RunExperiment(scenario.get(), options);
    EXPECT_EQ(result.scenario, name);
    EXPECT_EQ(result.group_labels.size(), result.group_envelopes.size());
    EXPECT_FALSE(result.pooled_impact.empty());
    EXPECT_EQ(result.metric_stats.size(), result.metric_names.size());
  }
}

TEST(MarketScenarioTest, SkillClassesFitByteGroupIds) {
  // Group ids are bytes: 256 classes fit, a 257th would share an id.
  sim::MatchingMarketScenario scenario;
  EXPECT_TRUE(scenario.SetParameter("skill_classes", 256.0));
  EXPECT_FALSE(scenario.SetParameter("skill_classes", 257.0));
  EXPECT_FALSE(scenario.SetParameter("skill_classes", 0.0));
  EXPECT_EQ(scenario.options().skill_classes, 256u);
  EXPECT_EQ(scenario.GroupLabels().size(), 256u);
}

TEST(ScenarioRegistryTest, UnknownNameHasNoScenario) {
  EXPECT_EQ(sim::CreateScenario("no_such_scenario"), nullptr);
  EXPECT_FALSE(sim::GetScenarioFactory("no_such_scenario"));
}

// --- Sweeps ------------------------------------------------------------------

sim::SweepOptions SmallMarketSweep() {
  sim::SweepOptions options;
  options.experiment.num_trials = 3;
  options.experiment.master_seed = 7;
  options.parameters = {{"exploration", {0.0, 0.3}},
                        {"capacity_fraction", {0.4, 0.6}}};
  return options;
}

sim::ScenarioFactory SmallMarketFactory() {
  return [] {
    auto scenario = std::make_unique<sim::MatchingMarketScenario>();
    scenario->SetParameter("num_workers", 40);
    scenario->SetParameter("rounds", 60);
    return std::unique_ptr<sim::Scenario>(std::move(scenario));
  };
}

TEST(SweepTest, GridShapeAndOrdering) {
  sim::SweepResult result =
      RunSweep(SmallMarketFactory(), SmallMarketSweep());
  ASSERT_EQ(result.points.size(), 4u);  // 2 x 2 grid.
  EXPECT_EQ(result.scenario, "market");
  ASSERT_EQ(result.parameter_names.size(), 2u);
  // Row-major, last parameter fastest.
  EXPECT_EQ(result.points[0].values, (std::vector<double>{0.0, 0.4}));
  EXPECT_EQ(result.points[1].values, (std::vector<double>{0.0, 0.6}));
  EXPECT_EQ(result.points[2].values, (std::vector<double>{0.3, 0.4}));
  EXPECT_EQ(result.points[3].values, (std::vector<double>{0.3, 0.6}));
  // Capacity fraction shows up in the pooled mean match rate.
  EXPECT_LT(result.points[0].summary.pooled_mean,
            result.points[1].summary.pooled_mean);
}

TEST(SweepTest, SameSpecSameDigestAcrossRunsAndThreadCounts) {
  sim::SweepOptions options = SmallMarketSweep();
  const uint64_t reference =
      SweepDigest(RunSweep(SmallMarketFactory(), options));
  EXPECT_EQ(SweepDigest(RunSweep(SmallMarketFactory(), options)), reference);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    options.experiment.num_threads = threads;
    EXPECT_EQ(SweepDigest(RunSweep(SmallMarketFactory(), options)), reference)
        << "threads=" << threads;
  }
}

TEST(SweepTest, KeepExperimentsRetainsFullResults) {
  sim::SweepOptions options = SmallMarketSweep();
  options.keep_experiments = true;
  sim::SweepResult result = RunSweep(SmallMarketFactory(), options);
  ASSERT_EQ(result.experiments.size(), result.points.size());
  for (size_t p = 0; p < result.points.size(); ++p) {
    EXPECT_EQ(sim::ExperimentDigest(result.experiments[p]),
              result.points[p].digest);
  }
}

TEST(SweepTest, RegistryFactoryDrivesACreditSweep) {
  sim::SweepOptions options;
  options.experiment.num_trials = 2;
  options.parameters = {{"num_users", {40.0}},
                        {"forgetting_factor", {1.0, 0.5}}};
  sim::SweepResult result =
      RunSweep(sim::GetScenarioFactory("credit"), options);
  ASSERT_EQ(result.points.size(), 2u);
  // Different forgetting factors genuinely change the simulated loop.
  EXPECT_NE(result.points[0].digest, result.points[1].digest);
}

TEST(SweepTest, EqualizerStrengthShrinksTheMatchRateGini) {
  // The paper's qualitative market result through the sweep harness: a
  // regulator steering exploration (strength > 0) shrinks the
  // match-rate Gini produced by pure reputation exploitation, and more
  // strongly with a stronger equalizer.
  sim::SweepOptions options;
  options.experiment.num_trials = 3;
  options.experiment.master_seed = 5;
  options.parameters = {{"equalizer_strength", {0.0, 0.5, 2.0}}};
  sim::SweepResult result = RunSweep(
      [] {
        auto scenario = std::make_unique<sim::MatchingMarketScenario>();
        scenario->SetParameter("num_workers", 80);
        scenario->SetParameter("rounds", 150);
        scenario->SetParameter("exploration", 0.0);
        return std::unique_ptr<sim::Scenario>(std::move(scenario));
      },
      options);
  ASSERT_EQ(result.points.size(), 3u);
  ASSERT_FALSE(result.metric_names.empty());
  ASSERT_EQ(result.metric_names[0], "match_rate_gini");
  const double gini_off = result.points[0].metric_means[0];
  const double gini_mid = result.points[1].metric_means[0];
  const double gini_strong = result.points[2].metric_means[0];
  EXPECT_GT(gini_off, 0.3);  // Lock-in under zero exploration.
  EXPECT_LT(gini_mid, gini_off);
  EXPECT_LT(gini_strong, gini_mid);
  EXPECT_LT(gini_strong, 0.3);
  // The pooled dispersion tells the same story.
  EXPECT_LT(result.points[2].summary.pooled_std,
            result.points[0].summary.pooled_std);
}

// --- Dynamics surrogates and ergodicity certificates ------------------------

TEST(DynamicsModelTest, EveryBuiltinScenarioDeclaresAContractiveSurrogate) {
  for (const std::string& name : sim::RegisteredScenarioNames()) {
    std::unique_ptr<sim::Scenario> scenario = sim::CreateScenario(name);
    ASSERT_NE(scenario, nullptr);
    std::optional<sim::ScenarioDynamics> model = scenario->DynamicsModel();
    ASSERT_TRUE(model.has_value()) << name;
    EXPECT_LT(model->lo, model->hi) << name;
    EXPECT_FALSE(model->description.empty()) << name;
    // Default parameters: every builtin's surrogate is an EWMA, which is
    // average-contractive.
    EXPECT_LT(model->ifs.AverageContractionFactor(), 1.0) << name;
  }
}

TEST(DynamicsModelTest, SurrogateTracksParameterChanges) {
  sim::CreditScenario scenario{{}};
  std::optional<sim::ScenarioDynamics> before = scenario.DynamicsModel();
  ASSERT_TRUE(before.has_value());
  // A heavier forgetting factor means a slower EWMA: a stronger
  // contraction (coefficient closer to 1 means factor closer to 1).
  ASSERT_TRUE(scenario.SetParameter("forgetting_factor", 0.5));
  std::optional<sim::ScenarioDynamics> after = scenario.DynamicsModel();
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(before->ifs.AverageContractionFactor(),
            after->ifs.AverageContractionFactor());
}

TEST(CertifyTest, AllRegisteredScenariosCertifyAtModestResolution) {
  sim::ScenarioCertifyOptions options;
  options.spectral.num_cells = 128;
  std::vector<sim::ScenarioCertificate> certificates =
      sim::CertifyRegisteredScenarios(options);
  EXPECT_EQ(certificates.size(), sim::RegisteredScenarioNames().size());
  for (const sim::ScenarioCertificate& certificate : certificates) {
    ASSERT_TRUE(certificate.has_model) << certificate.scenario;
    EXPECT_TRUE(certificate.spectral.invariant_measure_exists)
        << certificate.scenario;
    EXPECT_TRUE(certificate.spectral.certified) << certificate.scenario;
    EXPECT_GT(certificate.spectral.spectral_gap, 0.0)
        << certificate.scenario;
    EXPECT_TRUE(std::isfinite(certificate.spectral.mixing_time_bound))
        << certificate.scenario;
  }
}

TEST(CertifyTest, IntegralEnsembleControllerIsNotCertified) {
  // The integral-hysteresis surrogate is a slope-1 clamped random walk:
  // contraction factor exactly 1. The discretised chain still has an
  // invariant measure, but the certificate must refuse to certify — the
  // designed negative case of the --certify path.
  sim::EnsembleScenario scenario{{}};
  ASSERT_TRUE(scenario.SetParameter("controller", 1.0));
  sim::ScenarioCertifyOptions options;
  options.spectral.num_cells = 64;
  sim::ScenarioCertificate certificate =
      sim::CertifyScenario(scenario, options);
  ASSERT_TRUE(certificate.has_model);
  EXPECT_FALSE(certificate.spectral.average_contractive);
  EXPECT_DOUBLE_EQ(certificate.spectral.contraction_factor, 1.0);
  EXPECT_TRUE(certificate.spectral.invariant_measure_exists);
  EXPECT_FALSE(certificate.spectral.certified);
}

TEST(CertifyTest, RenderedJsonIsWellFormedAndCarriesProvenanceVerbatim) {
  sim::ScenarioCertifyOptions options;
  options.spectral.num_cells = 32;
  std::vector<sim::ScenarioCertificate> certificates =
      sim::CertifyRegisteredScenarios(options);
  const std::string provenance = "\"provenance\": {\"test\": true}";
  const std::string json = sim::RenderScenarioCertificatesJson(
      certificates, provenance, options);
  // Structural sanity without a JSON parser: the provenance line is
  // embedded verbatim, every scenario appears, and braces balance.
  EXPECT_NE(json.find(provenance), std::string::npos);
  for (const std::string& name : sim::RegisteredScenarioNames()) {
    EXPECT_NE(json.find("\"scenario\": \"" + name + "\""), std::string::npos)
        << name;
  }
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"certified\": true"), std::string::npos);
}

}  // namespace
}  // namespace eqimpact
