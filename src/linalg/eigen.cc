#include "linalg/eigen.h"

#include <cmath>

#include "base/check.h"
#include "linalg/solve.h"

namespace eqimpact {
namespace linalg {

double SpectralRadius(const Matrix& a, int max_squarings, double tolerance) {
  EQIMPACT_CHECK_EQ(a.rows(), a.cols());
  EQIMPACT_CHECK_GT(a.rows(), 0u);
  // Gelfand's formula with the induced infinity norm (max absolute row
  // sum), which is submultiplicative: ||A^(2^m)||^(1/2^m) -> rho(A).
  // Renormalise before each squaring and accumulate the log-scale so very
  // large or tiny powers cannot overflow.
  auto row_sum_norm = [](const Matrix& m) {
    double best = 0.0;
    for (size_t r = 0; r < m.rows(); ++r) {
      double sum = 0.0;
      for (size_t c = 0; c < m.cols(); ++c) sum += std::fabs(m(r, c));
      best = std::max(best, sum);
    }
    return best;
  };

  Matrix power = a;
  double log_scale = 0.0;  // log of the factor divided out so far.
  double previous_estimate = -1.0;
  for (int m = 0; m < max_squarings; ++m) {
    double norm = row_sum_norm(power);
    if (norm == 0.0) return 0.0;  // Nilpotent.
    double exponent = std::pow(2.0, m);
    double estimate = std::exp((log_scale + std::log(norm)) / exponent);
    if (m > 0 && std::fabs(estimate - previous_estimate) <=
                     tolerance * std::max(1.0, estimate)) {
      return estimate;
    }
    previous_estimate = estimate;
    Matrix scaled = power * (1.0 / norm);
    power = scaled * scaled;
    log_scale = 2.0 * (log_scale + std::log(norm));
  }
  return previous_estimate;
}

std::optional<Vector> StationaryDistribution(const Matrix& transition) {
  EQIMPACT_CHECK_EQ(transition.rows(), transition.cols());
  const size_t n = transition.rows();
  EQIMPACT_CHECK_GT(n, 0u);
  EQIMPACT_CHECK(transition.IsRowStochastic(1e-7));

  // Solve pi (P - I) = 0 with sum(pi) = 1: replace the last equation of the
  // transposed system with the normalisation row.
  Matrix system(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      system(r, c) = transition(c, r) - (r == c ? 1.0 : 0.0);
    }
  }
  for (size_t c = 0; c < n; ++c) system(n - 1, c) = 1.0;
  Vector rhs(n);
  rhs[n - 1] = 1.0;

  std::optional<Vector> pi = Solve(system, rhs);
  if (!pi.has_value()) return std::nullopt;
  // Clip the tiny negative round-off and renormalise.
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if ((*pi)[i] < 0.0) {
      if ((*pi)[i] < -1e-9) return std::nullopt;  // Genuinely negative: fail.
      (*pi)[i] = 0.0;
    }
    total += (*pi)[i];
  }
  if (total <= 0.0) return std::nullopt;
  *pi /= total;
  return pi;
}

}  // namespace linalg
}  // namespace eqimpact
