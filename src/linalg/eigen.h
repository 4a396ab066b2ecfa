#ifndef EQIMPACT_LINALG_EIGEN_H_
#define EQIMPACT_LINALG_EIGEN_H_

#include <optional>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eqimpact {
namespace linalg {

/// Spectral radius of a square matrix via Gelfand's formula
/// rho(A) = lim_k ||A^k||^(1/k), evaluated by repeated squaring with
/// renormalisation (so complex-conjugate dominant pairs — where plain
/// power iteration oscillates — are handled correctly). Accurate to
/// roughly `tolerance` in the exponent for any real matrix.
double SpectralRadius(const Matrix& a, int max_squarings = 48,
                      double tolerance = 1e-10);

/// Stationary distribution of a row-stochastic matrix P: the probability
/// vector pi with pi P = pi.
///
/// Solved directly via the linear system (P^T - I) pi = 0 augmented with
/// the normalisation constraint, which is robust even for periodic chains
/// (where power iteration would oscillate). Returns std::nullopt when the
/// system is numerically singular beyond the rank-1 deficiency (e.g. a
/// reducible chain with multiple stationary distributions).
std::optional<Vector> StationaryDistribution(const Matrix& transition);

}  // namespace linalg
}  // namespace eqimpact

#endif  // EQIMPACT_LINALG_EIGEN_H_
