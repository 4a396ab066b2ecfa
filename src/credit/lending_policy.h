#ifndef EQIMPACT_CREDIT_LENDING_POLICY_H_
#define EQIMPACT_CREDIT_LENDING_POLICY_H_

#include <memory>
#include <string>

#include "credit/repayment_model.h"
#include "ml/scorecard.h"

namespace eqimpact {
namespace credit {

/// Everything a policy may observe about an applicant. Race is
/// deliberately absent: it is the protected attribute.
struct Applicant {
  /// Exact income in $K. Needed to size an income-multiple mortgage; the
  /// *scorecard* policies ignore it and see only the code (paper: the
  /// income z is internal to the user, her code 1{z>=15} is visible).
  double income = 0.0;
  /// Income code 1{income >= threshold}.
  double income_code = 0.0;
  /// The applicant's trailing average default rate ADR_i(k-1).
  double adr = 0.0;
  /// Whether the applicant has ever defaulted.
  bool has_defaulted = false;
};

/// The lender's decision pi(k, i): approval plus mortgage size in $K.
struct LendingDecision {
  bool approved = false;
  double mortgage_amount = 0.0;
};

/// Abstract lending policy (the "AI System" block of Figure 1).
class LendingPolicy {
 public:
  virtual ~LendingPolicy() = default;

  /// Decides on one applicant.
  virtual LendingDecision Decide(const Applicant& applicant) const = 0;

  /// Short human-readable policy name for reports.
  virtual std::string name() const = 0;
};

/// The paper's scorecard policy: approve iff the scorecard score on
/// (ADR, income code) exceeds the cut-off; mortgage is income_multiple x
/// income. Feature order is [adr, income_code], matching Table I's rows
/// (History, then Income).
class ScorecardPolicy : public LendingPolicy {
 public:
  ScorecardPolicy(ml::Scorecard scorecard, double income_multiple = 3.5);
  LendingDecision Decide(const Applicant& applicant) const override;
  std::string name() const override { return "scorecard"; }
  const ml::Scorecard& scorecard() const { return scorecard_; }

 private:
  ml::Scorecard scorecard_;
  double income_multiple_;
};

/// The introduction's "most equal treatment possible" baseline: everyone
/// who has never defaulted is approved a flat-limit mortgage (paper:
/// $50K); anyone else is declined.
class FlatLimitPolicy : public LendingPolicy {
 public:
  explicit FlatLimitPolicy(double limit = 50.0);
  LendingDecision Decide(const Applicant& applicant) const override;
  std::string name() const override { return "flat-limit"; }

 private:
  double limit_;
};

/// The introduction's differentiated baseline: credit limit set at a
/// multiple of the annual salary (paper: three times), approved for all.
class IncomeMultiplePolicy : public LendingPolicy {
 public:
  explicit IncomeMultiplePolicy(double income_multiple = 3.0);
  LendingDecision Decide(const Applicant& applicant) const override;
  std::string name() const override { return "income-multiple"; }

 private:
  double income_multiple_;
};

/// Equal impact by design (the paper's future-work direction of imposing
/// constraints on the equality of impact): every applicant is approved
/// the largest mortgage they can carry at a common target repayment
/// probability, capped at the usual income multiple. Low-income
/// households receive smaller loans they can actually repay — unequal
/// treatment in the loan size, equalised default impact in the long run.
class AffordabilityCappedPolicy : public LendingPolicy {
 public:
  /// `target_repayment_probability` is the per-decision repayment
  /// probability every approved loan is sized to (in (0, 1));
  /// `income_multiple` caps the loan at the conventional size.
  AffordabilityCappedPolicy(const RepaymentModel* repayment_model,
                            double target_repayment_probability = 0.98,
                            double income_multiple = 3.5);
  LendingDecision Decide(const Applicant& applicant) const override;
  std::string name() const override { return "affordability-capped"; }

 private:
  const RepaymentModel* repayment_model_;  // Not owned; must outlive this.
  double target_repayment_probability_;
  double income_multiple_;
};

}  // namespace credit
}  // namespace eqimpact

#endif  // EQIMPACT_CREDIT_LENDING_POLICY_H_
