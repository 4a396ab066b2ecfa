// The introduction's conflict, quantified: equal treatment vs equal
// impact across four lending policies on the same census population.
//
//   flat-limit            the "most equal treatment possible": $50K for
//                         anyone who has never defaulted. Low-income
//                         households default, get locked out forever, and
//                         their impact diverges from everyone else's.
//   income-multiple       3x salary for everyone: differentiated
//                         treatment, but loans people can mostly carry.
//   scorecard (static)    the paper's Table I card, never retrained.
//   affordability-capped  equal impact by design: each loan sized so the
//                         repayment probability hits a common target —
//                         the paper's future-work "constraints on the
//                         equality of impact".
//
// For each policy we run the same 12-year loop and report, per income
// class (the non-protected attribute) and per race (the protected one):
// long-run average default rate and the long-run approval rate.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "credit/adr_filter.h"
#include "credit/income_model.h"
#include "credit/lending_policy.h"
#include "credit/population.h"
#include "credit/race.h"
#include "credit/repayment_model.h"
#include "ml/scorecard.h"
#include "rng/random.h"
#include "sim/text_table.h"
#include "stats/time_series.h"

namespace {

using namespace eqimpact;

struct PolicyOutcome {
  std::string name;
  double adr_low_income = 0.0;   // Pooled default rate on loans granted
                                 // while the applicant's income was <$15K.
  double adr_high_income = 0.0;  // Same, income >= $15K at decision time.
  double approval_low = 0.0;     // Approval rate of <$15K applications.
  double approval_high = 0.0;    // Approval rate of >=$15K applications.
  std::vector<double> race_adr;  // Long-run ADR per race.
};

PolicyOutcome RunPolicy(const credit::LendingPolicy& policy,
                        const credit::RepaymentModel& repayment,
                        uint64_t seed) {
  const size_t kUsers = 2000;
  const int kYears = 12;
  rng::Random race_rng(rng::DeriveSeed(seed, 0));
  rng::Random income_rng(rng::DeriveSeed(seed, 1));
  rng::Random repay_rng(rng::DeriveSeed(seed, 2));

  credit::IncomeModel income_model;
  credit::Population population(kUsers, &race_rng);
  credit::AdrFilter filter(kUsers);
  std::vector<bool> ever_defaulted(kUsers, false);
  // Incomes are resampled yearly (the paper's protocol), so class
  // statistics are pooled per decision: the class is the income code at
  // the time of the application.
  double applications[2] = {0.0, 0.0};
  double approvals[2] = {0.0, 0.0};
  double defaults[2] = {0.0, 0.0};

  for (int year = 0; year < kYears; ++year) {
    population.ResampleIncomes(2002 + year, income_model, &income_rng);
    for (size_t i = 0; i < kUsers; ++i) {
      double income = population.income(i);
      double code = population.IncomeCode(i, 15.0);
      credit::Applicant applicant{income, code, filter.UserAdr(i),
                                  ever_defaulted[i]};
      credit::LendingDecision decision = policy.Decide(applicant);
      bool repaid = repayment.SimulateRepaymentForAmount(
          income, decision.mortgage_amount, decision.approved, &repay_rng);
      filter.Update(i, decision.approved, repaid);
      size_t cls = code == 0.0 ? 0 : 1;
      applications[cls] += 1.0;
      if (decision.approved) {
        approvals[cls] += 1.0;
        if (!repaid) {
          defaults[cls] += 1.0;
          ever_defaulted[i] = true;
        }
      }
    }
  }

  PolicyOutcome outcome;
  outcome.name = policy.name();
  outcome.adr_low_income =
      approvals[0] > 0 ? defaults[0] / approvals[0] : 0.0;
  outcome.adr_high_income =
      approvals[1] > 0 ? defaults[1] / approvals[1] : 0.0;
  outcome.approval_low =
      applications[0] > 0 ? approvals[0] / applications[0] : 0.0;
  outcome.approval_high =
      applications[1] > 0 ? approvals[1] / applications[1] : 0.0;
  // Mean ADR per race, each race's sum taken in user order.
  std::vector<double> race_sum(credit::kNumRaces, 0.0);
  for (size_t i = 0; i < kUsers; ++i) {
    race_sum[population.race_ids()[i]] += filter.UserAdr(i);
  }
  for (size_t r = 0; r < credit::kNumRaces; ++r) {
    const size_t members = population.CountRace(static_cast<credit::Race>(r));
    outcome.race_adr.push_back(
        members == 0 ? 0.0 : race_sum[r] / static_cast<double>(members));
  }
  return outcome;
}

}  // namespace

int main() {
  std::printf("Equal treatment vs equal impact across lending policies\n");
  std::printf("========================================================\n\n");

  credit::RepaymentModel repayment;
  ml::Scorecard table_one(
      {{"History", "x ADR", -8.17}, {"Income", "> $15K", 5.77}}, 0.4);

  std::vector<std::unique_ptr<credit::LendingPolicy>> policies;
  policies.push_back(std::make_unique<credit::FlatLimitPolicy>(50.0));
  policies.push_back(std::make_unique<credit::IncomeMultiplePolicy>(3.0));
  policies.push_back(
      std::make_unique<credit::ScorecardPolicy>(table_one, 3.5));
  policies.push_back(std::make_unique<credit::AffordabilityCappedPolicy>(
      &repayment, 0.90, 3.5));

  sim::TextTable table({"policy", "ADR <15K", "ADR >=15K", "impact gap",
                        "approve <15K", "approve >=15K", "race ADR gap"});
  for (const auto& policy : policies) {
    PolicyOutcome outcome = RunPolicy(*policy, repayment, 77);
    table.AddRow(
        {outcome.name, sim::TextTable::Cell(outcome.adr_low_income, 3),
         sim::TextTable::Cell(outcome.adr_high_income, 3),
         sim::TextTable::Cell(
             std::fabs(outcome.adr_low_income - outcome.adr_high_income), 3),
         sim::TextTable::Cell(outcome.approval_low, 3),
         sim::TextTable::Cell(outcome.approval_high, 3),
         sim::TextTable::Cell(stats::CoincidenceGap(outcome.race_adr), 3)});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf(
      "reading:\n"
      " - flat-limit treats everyone 'equally' but low-income borrowers\n"
      "   default on the oversized loan (ADR ~0.8 vs ~0.003): massive\n"
      "   impact gap — the Equal Credit Opportunity Act story.\n"
      " - the scorecard closes the impact gap by *excluding* the <15K\n"
      "   class outright (approval 0), trading impact for access.\n"
      " - affordability-capped differentiates the loan size instead:\n"
      "   smaller loans people can carry, low default rates for every\n"
      "   class that can carry any loan at all — the paper's\n"
      "   'differentiated credit limits ... lead to a positive and\n"
      "   equal impact'.\n");
  return 0;
}
