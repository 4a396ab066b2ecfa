#include "markov/affine_ifs.h"

#include <cmath>

#include "base/check.h"
#include "linalg/eigen.h"
#include "linalg/solve.h"
#include "rng/categorical.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace markov {

AffineIfs::AffineIfs(std::vector<AffineMap> maps,
                     std::vector<double> probabilities)
    : maps_(std::move(maps)), probabilities_(std::move(probabilities)) {
  EQIMPACT_CHECK(!maps_.empty());
  EQIMPACT_CHECK_EQ(maps_.size(), probabilities_.size());
  double total = 0.0;
  for (size_t e = 0; e < maps_.size(); ++e) {
    EQIMPACT_CHECK_EQ(maps_[e].dimension(), maps_[0].dimension());
    EQIMPACT_CHECK_GE(probabilities_[e], 0.0);
    total += probabilities_[e];
  }
  EQIMPACT_CHECK(std::fabs(total - 1.0) <= 1e-9);
}

double AffineIfs::AverageContractionFactor() const {
  double factor = 0.0;
  for (size_t e = 0; e < maps_.size(); ++e) {
    factor += probabilities_[e] * maps_[e].LipschitzConstant();
  }
  return factor;
}

linalg::Vector AffineIfs::Step(const linalg::Vector& x,
                               rng::Random* random) const {
  size_t e = rng::SampleCategorical(probabilities_, random);
  return maps_[e](x);
}

double AffineIfs::TimeAverage(
    const linalg::Vector& x0, size_t steps, size_t burn_in,
    const std::function<double(const linalg::Vector&)>& f,
    rng::Random* random) const {
  EQIMPACT_CHECK_GT(steps, burn_in);
  linalg::Vector x = x0;
  double sum = 0.0;
  size_t counted = 0;
  for (size_t k = 0; k <= steps; ++k) {
    if (k >= burn_in) {
      sum += f(x);
      ++counted;
    }
    if (k < steps) x = Step(x, random);
  }
  return sum / static_cast<double>(counted);
}

linalg::Vector AffineIfs::InvariantMean() const {
  const size_t d = dimension();
  linalg::Matrix averaged_a(d, d);
  linalg::Vector averaged_b(d);
  for (size_t e = 0; e < maps_.size(); ++e) {
    averaged_a += probabilities_[e] * maps_[e].a();
    averaged_b += probabilities_[e] * maps_[e].b();
  }
  EQIMPACT_CHECK_LT(linalg::SpectralRadius(averaged_a), 1.0);
  linalg::Matrix system = linalg::Matrix::Identity(d) - averaged_a;
  std::optional<linalg::Vector> mean = linalg::Solve(system, averaged_b);
  EQIMPACT_CHECK(mean.has_value());
  return *mean;
}

EltonCheckResult VerifyEltonConvergence(
    const AffineIfs& ifs,
    const std::vector<linalg::Vector>& initial_conditions, size_t steps,
    size_t burn_in, const std::function<double(const linalg::Vector&)>& f,
    double tolerance, rng::Random* random) {
  EQIMPACT_CHECK(!initial_conditions.empty());
  EltonCheckResult result;
  result.time_averages.reserve(initial_conditions.size());
  for (const linalg::Vector& x0 : initial_conditions) {
    result.time_averages.push_back(
        ifs.TimeAverage(x0, steps, burn_in, f, random));
  }
  result.max_gap = stats::CoincidenceGap(result.time_averages);
  result.initial_condition_independent = result.max_gap <= tolerance;
  return result;
}

}  // namespace markov
}  // namespace eqimpact
