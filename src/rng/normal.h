#ifndef EQIMPACT_RNG_NORMAL_H_
#define EQIMPACT_RNG_NORMAL_H_

/// \file
/// Standard normal distribution functions used throughout the library.
///
/// The paper's repayment model (equation (11)) draws Bernoulli repayments
/// with success probability `Phi(5 x_i(k))`, where `Phi` is the cumulative
/// distribution function of the standard normal distribution, so these
/// functions sit on the hot path of every closed-loop step.

namespace eqimpact {
namespace rng {

/// Cumulative distribution function of the standard normal distribution.
/// This is exactly `base::NormalCdfScalar` — the library's pinned Phi
/// reference (Cody's erfc rationals over a pinned exp, NOT libm) — so the
/// result is reproducible bit-for-bit across runtimes and equal to every
/// vector lane of `runtime::kernels::NormalCdfBatch`. Accuracy: within
/// base::phi::kMaxUlpVsLibm ulp of the libm formulation
/// `0.5 * std::erfc(-x / sqrt 2)` for |x| <= base::phi::kClamp, exact
/// 0/1 saturation beyond (see base/simd_scalar.h for the full contract).
/// `StandardNormalCdf(0)` is exactly 0.5.
double StandardNormalCdf(double x);

/// Probability density function of the standard normal distribution.
double StandardNormalPdf(double x);

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// `p` must lie in (0, 1); the boundary values return -/+ infinity.
/// Implemented with the Acklam rational approximation refined by one
/// Halley step, giving ~1e-15 relative accuracy across (0, 1).
double StandardNormalQuantile(double p);

}  // namespace rng
}  // namespace eqimpact

#endif  // EQIMPACT_RNG_NORMAL_H_
