// Unit tests for the compliance-report assessment and the
// affordability-based lending extensions.

#include <vector>

#include <gtest/gtest.h>

#include "core/compliance_report.h"
#include "credit/lending_policy.h"
#include "credit/repayment_model.h"
#include "rng/random.h"

namespace eqimpact {
namespace {

// --- Compliance report ---------------------------------------------------------

core::ComplianceInputs FairInputs() {
  core::ComplianceInputs inputs;
  rng::Random random(11);
  for (int i = 0; i < 12; ++i) {
    std::vector<double> series;
    for (int k = 0; k < 3000; ++k) {
      series.push_back(random.Bernoulli(0.4) ? 1.0 : 0.0);
    }
    inputs.user_outcomes.push_back(std::move(series));
    inputs.class_of.push_back(i % 3);
  }
  inputs.class_names = {"alpha", "beta", "gamma"};
  return inputs;
}

TEST(ComplianceTest, FairLoopPassesAllImpactChecks) {
  core::ComplianceVerdict verdict = core::AssessCompliance(FairInputs());
  EXPECT_TRUE(verdict.impact_overall.equal_impact);
  EXPECT_TRUE(verdict.equal_impact_across_classes);
  for (const auto& report : verdict.impact_by_class) {
    EXPECT_TRUE(report.equal_impact);
  }
  // Stochastic responses: strict equal treatment must fail.
  EXPECT_FALSE(verdict.treatment.constant_action);
  for (double limit : verdict.class_mean_limits) {
    EXPECT_NEAR(limit, 0.4, 0.05);
  }
}

TEST(ComplianceTest, DisparateImpactIsFlagged) {
  core::ComplianceInputs inputs;
  for (int i = 0; i < 6; ++i) {
    // Class 0 users settle at 0.8, class 1 users at 0.2.
    double level = i < 3 ? 0.8 : 0.2;
    inputs.user_outcomes.push_back(std::vector<double>(2000, level));
    inputs.class_of.push_back(i < 3 ? 0 : 1);
  }
  inputs.class_names = {"group-a", "group-b"};
  core::ComplianceVerdict verdict = core::AssessCompliance(inputs);
  EXPECT_FALSE(verdict.equal_impact_across_classes);
  EXPECT_NEAR(verdict.between_class_gap, 0.6, 1e-9);
  // Within each class the users coincide.
  EXPECT_TRUE(verdict.impact_by_class[0].equal_impact);
  EXPECT_TRUE(verdict.impact_by_class[1].equal_impact);
}

TEST(ComplianceTest, RenderedReportMentionsClassesAndVerdicts) {
  core::ComplianceVerdict verdict = core::AssessCompliance(FairInputs());
  std::string report =
      core::RenderComplianceReport(verdict, {"alpha", "beta", "gamma"});
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("gamma"), std::string::npos);
  EXPECT_NE(report.find("Equal impact"), std::string::npos);
  EXPECT_NE(report.find("PASS"), std::string::npos);
}

// --- Affordability extensions ----------------------------------------------------

TEST(AffordabilityTest, MaxMortgageInvertsRepaymentProbability) {
  credit::RepaymentModel model;
  for (double income : {20.0, 40.0, 80.0}) {
    for (double target : {0.8, 0.9, 0.95}) {
      double amount = model.MaxAffordableMortgage(income, target);
      ASSERT_GT(amount, 0.0) << income << " " << target;
      EXPECT_NEAR(model.RepaymentProbabilityForAmount(income, amount), target,
                  1e-9)
          << income << " " << target;
    }
  }
}

TEST(AffordabilityTest, LargerLoansAreRiskier) {
  credit::RepaymentModel model;
  double amount = model.MaxAffordableMortgage(30.0, 0.9);
  EXPECT_LT(model.RepaymentProbabilityForAmount(30.0, amount * 1.5), 0.9);
  EXPECT_GT(model.RepaymentProbabilityForAmount(30.0, amount * 0.5), 0.9);
}

TEST(AffordabilityTest, DestituteHouseholdCannotBorrow) {
  credit::RepaymentModel model;
  // Income below the living cost: no loan is affordable.
  EXPECT_DOUBLE_EQ(model.MaxAffordableMortgage(9.0, 0.9), 0.0);
}

TEST(AffordabilityTest, HigherTargetMeansSmallerLoan) {
  credit::RepaymentModel model;
  double lenient = model.MaxAffordableMortgage(40.0, 0.8);
  double strict = model.MaxAffordableMortgage(40.0, 0.99);
  EXPECT_GT(lenient, strict);
}

TEST(AffordabilityPolicyTest, CapsAtIncomeMultiple) {
  credit::RepaymentModel model;
  credit::AffordabilityCappedPolicy policy(&model, 0.9, 3.5);
  // A wealthy applicant could afford far more than 3.5x income at 90%;
  // the cap binds.
  credit::LendingDecision decision = policy.Decide({200.0, 1.0, 0.0, false});
  EXPECT_TRUE(decision.approved);
  EXPECT_DOUBLE_EQ(decision.mortgage_amount, 700.0);
}

TEST(AffordabilityPolicyTest, ShrinksLoansForLowIncomes) {
  credit::RepaymentModel model;
  credit::AffordabilityCappedPolicy policy(&model, 0.9, 3.5);
  credit::LendingDecision decision = policy.Decide({14.0, 0.0, 0.0, false});
  ASSERT_TRUE(decision.approved);
  EXPECT_LT(decision.mortgage_amount, 3.5 * 14.0);
  EXPECT_GT(decision.mortgage_amount, 0.0);
  // The shrunk loan meets the target.
  EXPECT_GE(model.RepaymentProbabilityForAmount(14.0,
                                                decision.mortgage_amount),
            0.9 - 1e-9);
}

TEST(AffordabilityPolicyTest, DeclinesWhenNothingIsAffordable) {
  credit::RepaymentModel model;
  credit::AffordabilityCappedPolicy policy(&model, 0.9, 3.5);
  credit::LendingDecision decision = policy.Decide({10.0, 0.0, 0.0, false});
  EXPECT_FALSE(decision.approved);
  EXPECT_DOUBLE_EQ(decision.mortgage_amount, 0.0);
}

class AffordabilityTargetSweep : public ::testing::TestWithParam<double> {};

TEST_P(AffordabilityTargetSweep, ApprovedLoansAlwaysMeetTheTarget) {
  const double target = GetParam();
  credit::RepaymentModel model;
  credit::AffordabilityCappedPolicy policy(&model, target, 3.5);
  rng::Random random(77);
  for (int trial = 0; trial < 200; ++trial) {
    double income = random.UniformDouble(5.0, 300.0);
    credit::LendingDecision decision =
        policy.Decide({income, income >= 15.0 ? 1.0 : 0.0, 0.0, false});
    if (!decision.approved) continue;
    EXPECT_GE(model.RepaymentProbabilityForAmount(income,
                                                  decision.mortgage_amount),
              target - 1e-9)
        << "income " << income;
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, AffordabilityTargetSweep,
                         ::testing::Values(0.5, 0.8, 0.9, 0.99));

}  // namespace
}  // namespace eqimpact
