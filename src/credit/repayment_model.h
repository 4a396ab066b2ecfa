#ifndef EQIMPACT_CREDIT_REPAYMENT_MODEL_H_
#define EQIMPACT_CREDIT_REPAYMENT_MODEL_H_

#include <cstddef>

#include "rng/random.h"

namespace eqimpact {
namespace credit {

/// Gaussian conditional-independence repayment model (paper equations
/// (10)-(11), after Rutkowski & Tarca 2015).
///
/// A household with annual income z (thousands of dollars) that is offered
/// a mortgage of `income_multiple` x z at annual rate `annual_rate` with
/// basic living cost `living_cost` has private state
///   x = (z - living_cost - income_multiple * annual_rate * z) / z,
/// the share of income left after living costs and mortgage interest.
/// The binary repayment action is
///   y = 0                      if x <= 0 or no mortgage was offered,
///   y ~ Bernoulli(Phi(s * x))  otherwise,
/// with Phi the standard normal CDF and s the `sensitivity` (paper: 5).
struct RepaymentModelOptions {
  double income_multiple = 3.5;  ///< Mortgage size as a multiple of income.
  double annual_rate = 0.0216;   ///< Paper: 2.16% p.a.
  double living_cost = 10.0;     ///< Paper: $10K basic living cost.
  double sensitivity = 5.0;      ///< Paper: Phi(5 x).
};

class RepaymentModel {
 public:
  explicit RepaymentModel(
      RepaymentModelOptions options = RepaymentModelOptions());

  const RepaymentModelOptions& options() const { return options_; }

  /// The private state x_i(k) of equation (10) for income z (in $K) under
  /// the default mortgage size income_multiple * z.
  double SurplusShare(double income) const;

  /// SurplusShare for an explicit mortgage amount (in $K) instead of the
  /// income multiple; lets alternative policies (e.g. the flat $50K limit
  /// of the paper's introduction) reuse the same behavioural model.
  double SurplusShareForAmount(double income, double mortgage_amount) const;

  /// P(y = 1) = Phi(sensitivity * x) for x > 0, and 0 for x <= 0, under
  /// the default mortgage size.
  double RepaymentProbability(double income) const;

  /// RepaymentProbability for an explicit mortgage amount.
  double RepaymentProbabilityForAmount(double income,
                                       double mortgage_amount) const;

  /// Batched RepaymentProbability under the default mortgage size:
  /// out[i] = RepaymentProbability(incomes[i]), bit for bit. The whole
  /// pipeline is vectorized: surplus shares through the SurplusShare
  /// kernel into the caller-provided `shares` scratch (length >= n,
  /// must not overlap `out`), then Phi(sensitivity * share) through
  /// NormalCdfBatch — since PR 6 the normal CDF is the pinned
  /// base::NormalCdfScalar reference, not libm, so no scalar libm call
  /// is left on this path. Non-positive shares yield exactly 0.0, like
  /// the scalar model. All incomes must be positive, as the behavioural
  /// model requires. `out == incomes` aliasing is allowed.
  void ProbabilityBatch(const double* incomes, size_t n, double* shares,
                        double* out) const;

  /// Samples the repayment action y in {0, 1} of equation (11) for a
  /// mortgage of `mortgage_amount` (in $K). When `offered` is false the
  /// action is 0 ("no repayment is made").
  bool SimulateRepaymentForAmount(double income, double mortgage_amount,
                                  bool offered, rng::Random* random) const;

  /// Largest mortgage amount (in $K) a household with `income` can carry
  /// while keeping its repayment probability at least `target_probability`
  /// (in (0, 1)). Inverts equation (11): Phi(s x) >= p iff
  /// x >= Phi^-1(p)/s, so m <= (z - living - z Phi^-1(p)/s) / rate.
  /// Returns 0 when even a zero-interest loan is unaffordable. This is the
  /// quantitative form of the paper's introduction: "differentiated credit
  /// limits may make it possible for the same subgroup to repay the loans
  /// successfully ... and eventually lead to a positive and equal impact".
  double MaxAffordableMortgage(double income,
                               double target_probability) const;

 private:
  RepaymentModelOptions options_;
};

}  // namespace credit
}  // namespace eqimpact

#endif  // EQIMPACT_CREDIT_REPAYMENT_MODEL_H_
