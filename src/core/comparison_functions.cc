#include "core/comparison_functions.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "linalg/eigen.h"

namespace eqimpact {
namespace core {

LinearIssCertificate CertifyLinearIncrementalIss(const linalg::Matrix& a) {
  EQIMPACT_CHECK_EQ(a.rows(), a.cols());
  LinearIssCertificate certificate;
  certificate.spectral_radius = linalg::SpectralRadius(a);
  if (certificate.spectral_radius >= 1.0) return certificate;

  certificate.incrementally_iss = true;
  certificate.decay_rate = 0.5 * (certificate.spectral_radius + 1.0);

  // Probe ||A^k|| (via the max-row-sum norm as an upper bound on induced
  // infinity norm growth) to find an overshoot constant valid on a long
  // horizon; beyond the probe the geometric decay dominates.
  linalg::Matrix power = linalg::Matrix::Identity(a.rows());
  double overshoot = 1.0;
  double decay = 1.0;
  for (int k = 1; k <= 200; ++k) {
    power = power * a;
    decay *= certificate.decay_rate;
    double norm = 0.0;
    for (size_t r = 0; r < power.rows(); ++r) {
      double row_sum = 0.0;
      for (size_t c = 0; c < power.cols(); ++c) {
        row_sum += std::fabs(power(r, c));
      }
      norm = std::max(norm, row_sum);
    }
    overshoot = std::max(overshoot, norm / decay);
  }
  certificate.overshoot = overshoot;
  return certificate;
}

}  // namespace core
}  // namespace eqimpact
