#include "rng/normal.h"

#include <cmath>
#include <limits>

#include "base/check.h"
#include "base/simd_scalar.h"

namespace eqimpact {
namespace rng {
namespace {

constexpr double kInvSqrt2Pi = 0.3989422804014326779;

// Coefficients of Acklam's rational approximation to the normal quantile.
constexpr double kA[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                         -2.759285104469687e+02, 1.383577518672690e+02,
                         -3.066479806614716e+01, 2.506628277459239e+00};
constexpr double kB[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                         -1.556989798598866e+02, 6.680131188771972e+01,
                         -1.328068155288572e+01};
constexpr double kC[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                         -2.400758277161838e+00, -2.549732539343734e+00,
                         4.374664141464968e+00,  2.938163982698783e+00};
constexpr double kD[] = {7.784695709041462e-03, 3.224671290700398e-01,
                         2.445134137142996e+00, 3.754408661907416e+00};

double AcklamQuantile(double p) {
  constexpr double kLow = 0.02425;
  double q, r;
  if (p < kLow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q +
            kC[5]) /
           ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
  }
  if (p <= 1.0 - kLow) {
    q = p - 0.5;
    r = q * q;
    return (((((kA[0] * r + kA[1]) * r + kA[2]) * r + kA[3]) * r + kA[4]) * r +
            kA[5]) *
           q /
           (((((kB[0] * r + kB[1]) * r + kB[2]) * r + kB[3]) * r + kB[4]) * r +
            1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q +
           kC[5]) /
         ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
}

}  // namespace

double StandardNormalCdf(double x) {
  // The pinned reference replaced the historical libm formulation
  // 0.5 * std::erfc(-x / kSqrt2) — a one-time digest bump (see
  // base/simd_scalar.h for why).
  return base::NormalCdfScalar(x);
}

void StandardNormalCdfBatch(const double* x, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = base::NormalCdfScalar(x[i]);
}

double StandardNormalPdf(double x) {
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double StandardNormalQuantile(double p) {
  EQIMPACT_CHECK(p >= 0.0 && p <= 1.0);
  if (p == 0.0) return -std::numeric_limits<double>::infinity();
  if (p == 1.0) return std::numeric_limits<double>::infinity();
  double x = AcklamQuantile(p);
  // One Halley refinement step against the exact CDF pushes the rational
  // approximation from ~1e-9 to near machine precision.
  double e = StandardNormalCdf(x) - p;
  double u = e / StandardNormalPdf(x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

}  // namespace rng
}  // namespace eqimpact
