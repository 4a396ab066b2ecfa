// Integration tests across modules: the full paper pipeline — closed
// loop, filters, scorecards, and the fairness auditors applied to the
// loop's output — plus the Section VI certificate-to-behaviour bridges.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/auditors.h"
#include "core/ergodicity.h"
#include "credit/credit_loop.h"
#include "credit/lending_policy.h"
#include "credit/race.h"
#include "ml/scorecard.h"
#include "markov/affine_ifs.h"
#include "markov/affine_map.h"
#include "rng/random.h"
#include "sim/credit_scenario.h"
#include "sim/ensemble_control.h"
#include "sim/experiment.h"
#include "stats/aggregate.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace {

using credit::Race;

// The race-wise envelopes of `num_trials` trials of 1000 users.
std::vector<stats::SeriesEnvelope> RaceEnvelopes(size_t num_trials,
                                                 uint64_t master_seed) {
  sim::CreditScenarioOptions scenario_options;
  scenario_options.loop.num_users = 1000;
  sim::CreditScenario scenario(scenario_options);
  sim::ExperimentOptions options;
  options.num_trials = num_trials;
  options.master_seed = master_seed;
  return sim::RunExperiment(&scenario, options).group_envelopes;
}

// The credit loop's user-wise ADR series audited for equal impact — the
// paper's claim is that the series "are dwindling to a similar level".
TEST(PipelineTest, CreditLoopUserAdrsConvergeTowardsCoincidence) {
  credit::CreditLoopOptions options;
  options.num_users = 1000;
  options.seed = 1234;
  credit::CreditLoopResult result =
      credit::CreditScoringLoop(options).Run();

  // Audit the user ADR series directly (they are already Cesaro-like
  // averages): the cross-user spread must shrink substantially from the
  // early years to the final year.
  std::vector<double> early, late;
  for (const auto& series : result.user_adr) {
    early.push_back(series[2]);
    late.push_back(series.back());
  }
  double early_spread = stats::CoincidenceGap(early);
  double late_mean = 0.0;
  for (double v : late) late_mean += v;
  late_mean /= static_cast<double>(late.size());
  // The bulk of users must end near the common low level: measure the
  // 5%-95% interquantile spread rather than the absolute extremes.
  double q05 = stats::Quantile(late, 0.05);
  double q95 = stats::Quantile(late, 0.95);
  EXPECT_LT(q95 - q05, early_spread);
  EXPECT_LT(late_mean, 0.12);
}

TEST(PipelineTest, RaceWiseAdrsCoincideInTheLongRun) {
  // Definition 4 with race as the (protected) class: the race-wise ADR
  // limits must coincide even though race never enters the scorecard.
  const std::vector<stats::SeriesEnvelope> envelopes = RaceEnvelopes(3, 77);

  std::vector<double> final_race_adrs;
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    final_race_adrs.push_back(envelopes[r].mean.back());
  }
  EXPECT_LT(stats::CoincidenceGap(final_race_adrs), 0.05)
      << "race-wise ADR limits must be within a few percent of each other";
}

TEST(PipelineTest, RaceWiseAdrsDeclineFromWarmupPeak) {
  // Figure 3's shape: after the warm-up (approve-all) years, retraining
  // suppresses defaults, so the final ADR is below the early peak for
  // every race.
  const std::vector<stats::SeriesEnvelope> envelopes = RaceEnvelopes(3, 78);
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    const std::vector<double>& mean = envelopes[r].mean;
    double peak = *std::max_element(mean.begin(), mean.begin() + 5);
    EXPECT_LE(mean.back(), peak + 1e-9)
        << RaceName(static_cast<Race>(r));
  }
}

TEST(PipelineTest, InitialConditionIndependenceAcrossTrials) {
  // Two independent trials (fresh cohorts, fresh randomness) must agree
  // on the race-wise ADR limits — the ergodic "independent of initial
  // conditions" half of Definition 3.
  credit::CreditLoopOptions options;
  options.num_users = 1000;

  options.seed = 1;
  credit::CreditLoopResult run_a =
      credit::CreditScoringLoop(options).Run();
  options.seed = 2;
  credit::CreditLoopResult run_b =
      credit::CreditScoringLoop(options).Run();

  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    EXPECT_NEAR(run_a.race_adr[r].back(), run_b.race_adr[r].back(), 0.03)
        << RaceName(static_cast<Race>(r));
  }
}

TEST(PipelineTest, EqualTreatmentConditionedOnIncomeHolds) {
  // The paper: "equal impact is possible while preserving equal treatment
  // conditional on a non-protected attribute of income". Structurally,
  // the scorecard score depends only on (ADR, income code); two users
  // with identical ADR and identical income code always receive the same
  // decision. Verify on a frozen scorecard.
  ml::Scorecard card(
      {{"History", "x ADR", -8.17}, {"Income", "> $15K", 5.77}}, 0.4);
  credit::ScorecardPolicy policy(card, 3.5);
  for (double adr : {0.0, 0.1, 0.5, 0.9}) {
    for (double code : {0.0, 1.0}) {
      credit::LendingDecision a = policy.Decide({52.0, code, adr, false});
      credit::LendingDecision b = policy.Decide({52.0, code, adr, true});
      EXPECT_EQ(a.approved, b.approved);
      EXPECT_DOUBLE_EQ(a.mortgage_amount, b.mortgage_amount);
    }
  }
}

TEST(PipelineTest, CertificatePredictsEltonBehaviourPositive) {
  // Certificate says uniquely ergodic => time averages must agree across
  // initial conditions, verified by simulation.
  markov::AffineIfs ifs({markov::AffineMap::Scalar(0.6, 0.0),
                         markov::AffineMap::Scalar(0.6, 0.4)},
                        {0.5, 0.5});
  core::ErgodicityCertificate certificate = core::CertifyAffineIfs(ifs);
  ASSERT_TRUE(certificate.uniquely_ergodic);
  rng::Random random(55);
  markov::EltonCheckResult elton = VerifyEltonConvergence(
      ifs, {linalg::Vector{-20.0}, linalg::Vector{0.0}, linalg::Vector{20.0}},
      100000, 100, [](const linalg::Vector& x) { return x[0]; }, 0.05,
      &random);
  EXPECT_TRUE(elton.initial_condition_independent);
}

TEST(PipelineTest, EnsembleAuditorsAgreeWithControllers) {
  // Hook the ensemble-control experiments to the auditors end to end.
  sim::EnsembleOptions options;
  options.num_agents = 8;
  options.steps = 8000;
  options.burn_in = 500;

  auto run_to_actions = [&options](sim::EnsembleControllerKind kind,
                                   const std::vector<bool>& initial,
                                   uint64_t seed) {
    rng::Random random(seed);
    // Reconstruct per-agent action series by re-simulating with the same
    // parameters but recording actions through per_agent_average only is
    // lossy, so run the loop manually here via the public API: the
    // aggregate series plus per-agent averages suffice for the audit of
    // limits; for series-level audits use the stable controller's
    // i.i.d. structure.
    return sim::RunEnsembleControl(kind, options, initial, 0.5, &random);
  };

  std::vector<bool> half(8, false);
  for (size_t i = 0; i < 4; ++i) half[i] = true;

  sim::EnsembleRunResult stable = run_to_actions(
      sim::EnsembleControllerKind::kStableRandomized, half, 61);
  sim::EnsembleRunResult integral = run_to_actions(
      sim::EnsembleControllerKind::kIntegralHysteresis, half, 62);

  EXPECT_LT(stats::CoincidenceGap(stable.per_agent_average), 0.05);
  EXPECT_GT(stats::CoincidenceGap(integral.per_agent_average), 0.9);
}

TEST(PipelineTest, FlatLimitBaselineHurtsLowIncomeGroupsLongRun) {
  // The introduction's motivating story: the flat-$50K "equal treatment"
  // policy locks past defaulters out forever. Simulate it directly on the
  // behavioural model.
  credit::FlatLimitPolicy policy(50.0);
  credit::RepaymentModel repayment;
  rng::Random random(63);

  // A low-income household: defaults are likely in year one; after the
  // first default the policy never lends again.
  size_t locked_out = 0;
  const int households = 2000;
  for (int h = 0; h < households; ++h) {
    bool has_defaulted = false;
    for (int year = 0; year < 10; ++year) {
      credit::LendingDecision decision =
          policy.Decide({13.0, 0.0, 0.0, has_defaulted});
      if (!decision.approved) continue;
      bool repaid = repayment.SimulateRepaymentForAmount(
          13.0, decision.mortgage_amount, true, &random);
      if (!repaid) has_defaulted = true;
    }
    locked_out += has_defaulted ? 1 : 0;
  }
  // The majority of low-income households end permanently excluded.
  EXPECT_GT(static_cast<double>(locked_out) / households, 0.5);
}

}  // namespace
}  // namespace eqimpact
