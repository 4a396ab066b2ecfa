#include "credit/repayment_model.h"

#include "base/check.h"
#include "rng/normal.h"
#include "runtime/kernels.h"

namespace eqimpact {
namespace credit {

RepaymentModel::RepaymentModel(RepaymentModelOptions options)
    : options_(options) {
  EQIMPACT_CHECK_GT(options_.income_multiple, 0.0);
  EQIMPACT_CHECK_GE(options_.annual_rate, 0.0);
  EQIMPACT_CHECK_GE(options_.living_cost, 0.0);
  EQIMPACT_CHECK_GT(options_.sensitivity, 0.0);
}

double RepaymentModel::SurplusShare(double income) const {
  return SurplusShareForAmount(income, options_.income_multiple * income);
}

double RepaymentModel::SurplusShareForAmount(double income,
                                             double mortgage_amount) const {
  EQIMPACT_CHECK_GT(income, 0.0);
  return (income - options_.living_cost -
          options_.annual_rate * mortgage_amount) /
         income;
}

double RepaymentModel::RepaymentProbability(double income) const {
  return RepaymentProbabilityForAmount(income,
                                       options_.income_multiple * income);
}

double RepaymentModel::RepaymentProbabilityForAmount(
    double income, double mortgage_amount) const {
  double x = SurplusShareForAmount(income, mortgage_amount);
  if (x <= 0.0) return 0.0;
  return rng::StandardNormalCdf(options_.sensitivity * x);
}

void RepaymentModel::ProbabilityBatch(const double* incomes, size_t n,
                                      double* shares, double* out) const {
  // x_i first (vectorized, same arithmetic as SurplusShareForAmount with
  // the default income_multiple * z mortgage), then Phi(s * x_i) exactly
  // as RepaymentProbabilityForAmount evaluates it: one multiply, one
  // pinned Phi, and the x <= 0 guard as a final select. Phi runs on
  // every lane (cheaper than compacting) and the guard overwrites the
  // non-positive ones, which matches the scalar short-circuit bit for
  // bit.
  runtime::kernels::SurplusShare(incomes, n, options_.income_multiple,
                                 options_.living_cost, options_.annual_rate,
                                 shares);
  for (size_t i = 0; i < n; ++i) out[i] = options_.sensitivity * shares[i];
  runtime::kernels::NormalCdfBatch(out, n, out);
  for (size_t i = 0; i < n; ++i) {
    if (shares[i] <= 0.0) out[i] = 0.0;
  }
}

bool RepaymentModel::SimulateRepaymentForAmount(double income,
                                                double mortgage_amount,
                                                bool offered,
                                                rng::Random* random) const {
  if (!offered) return false;
  double p = RepaymentProbabilityForAmount(income, mortgage_amount);
  if (p <= 0.0) return false;
  return random->Bernoulli(p);
}

double RepaymentModel::MaxAffordableMortgage(double income,
                                             double target_probability) const {
  EQIMPACT_CHECK_GT(income, 0.0);
  EQIMPACT_CHECK(target_probability > 0.0 && target_probability < 1.0);
  double required_x = rng::StandardNormalQuantile(target_probability) /
                      options_.sensitivity;
  if (options_.annual_rate <= 0.0) {
    // Free credit: affordable iff the surplus condition already holds.
    return SurplusShare(income) >= required_x ? 1e9 : 0.0;
  }
  double amount =
      (income - options_.living_cost - required_x * income) /
      options_.annual_rate;
  return amount > 0.0 ? amount : 0.0;
}

}  // namespace credit
}  // namespace eqimpact
