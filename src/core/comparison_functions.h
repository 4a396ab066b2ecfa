#ifndef EQIMPACT_CORE_COMPARISON_FUNCTIONS_H_
#define EQIMPACT_CORE_COMPARISON_FUNCTIONS_H_

#include "linalg/matrix.h"

namespace eqimpact {
namespace core {

/// Incremental input-to-state stability certificate for the linear system
/// x(k+1) = A x(k) + B u(k) (Definition 7 specialised to linear maps, with
/// the comparison functions of Definitions 5-6 after Angeli 2002). It
/// justifies ergodic behaviour of controller/filter dynamics.
struct LinearIssCertificate {
  /// Spectral radius of A.
  double spectral_radius = 0.0;
  /// True if rho(A) < 1, in which case the system is globally
  /// incrementally ISS with beta(s, k) = c rho^k s and a linear gain.
  bool incrementally_iss = false;
  /// The geometric decay rate usable in beta (a value in (rho(A), 1)
  /// when certified, else 1).
  double decay_rate = 1.0;
  /// Overshoot constant c such that ||A^k|| <= c * decay_rate^k holds on
  /// the probed horizon.
  double overshoot = 1.0;
};

/// Certifies incremental ISS of x(k+1) = A x(k) + B u(k). For linear
/// systems incremental ISS is equivalent to Schur stability of A; the
/// certificate includes explicit (numerically probed) beta parameters.
LinearIssCertificate CertifyLinearIncrementalIss(const linalg::Matrix& a);

}  // namespace core
}  // namespace eqimpact

#endif  // EQIMPACT_CORE_COMPARISON_FUNCTIONS_H_
