#include "credit/lending_policy.h"

#include <algorithm>

#include "base/check.h"
#include "linalg/vector.h"

namespace eqimpact {
namespace credit {

ScorecardPolicy::ScorecardPolicy(ml::Scorecard scorecard,
                                 double income_multiple)
    : scorecard_(std::move(scorecard)), income_multiple_(income_multiple) {
  EQIMPACT_CHECK_EQ(scorecard_.num_factors(), 2u);
  EQIMPACT_CHECK_GT(income_multiple_, 0.0);
}

LendingDecision ScorecardPolicy::Decide(const Applicant& applicant) const {
  linalg::Vector features{applicant.adr, applicant.income_code};
  if (!scorecard_.Approve(features)) return LendingDecision{false, 0.0};
  return LendingDecision{true, income_multiple_ * applicant.income};
}

FlatLimitPolicy::FlatLimitPolicy(double limit) : limit_(limit) {
  EQIMPACT_CHECK_GT(limit_, 0.0);
}

LendingDecision FlatLimitPolicy::Decide(const Applicant& applicant) const {
  if (applicant.has_defaulted) return LendingDecision{false, 0.0};
  return LendingDecision{true, limit_};
}

IncomeMultiplePolicy::IncomeMultiplePolicy(double income_multiple)
    : income_multiple_(income_multiple) {
  EQIMPACT_CHECK_GT(income_multiple_, 0.0);
}

LendingDecision IncomeMultiplePolicy::Decide(
    const Applicant& applicant) const {
  return LendingDecision{true, income_multiple_ * applicant.income};
}

AffordabilityCappedPolicy::AffordabilityCappedPolicy(
    const RepaymentModel* repayment_model,
    double target_repayment_probability, double income_multiple)
    : repayment_model_(repayment_model),
      target_repayment_probability_(target_repayment_probability),
      income_multiple_(income_multiple) {
  EQIMPACT_CHECK(repayment_model_ != nullptr);
  EQIMPACT_CHECK(target_repayment_probability_ > 0.0 &&
                 target_repayment_probability_ < 1.0);
  EQIMPACT_CHECK_GT(income_multiple_, 0.0);
}

LendingDecision AffordabilityCappedPolicy::Decide(
    const Applicant& applicant) const {
  double affordable = repayment_model_->MaxAffordableMortgage(
      applicant.income, target_repayment_probability_);
  double amount =
      std::min(affordable, income_multiple_ * applicant.income);
  if (amount <= 0.0) return LendingDecision{false, 0.0};
  return LendingDecision{true, amount};
}

}  // namespace credit
}  // namespace eqimpact
