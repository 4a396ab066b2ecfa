#ifndef EQIMPACT_MARKOV_AFFINE_MAP_H_
#define EQIMPACT_MARKOV_AFFINE_MAP_H_

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eqimpact {
namespace markov {

/// Affine self-map x -> A x + b of R^d.
///
/// The workhorse map family for iterated function systems: Lipschitz
/// constants are computable exactly (spectral norm of A), so average
/// contractivity of an affine IFS can be certified rather than merely
/// estimated. Also used as the closed-loop update of linear
/// controller/filter dynamics in the ensemble-control experiments.
class AffineMap {
 public:
  /// Constructs x -> a x + b; CHECK-fails unless shapes are consistent
  /// (a square, b.size() == a.rows()).
  AffineMap(linalg::Matrix a, linalg::Vector b);

  /// Scalar convenience: x -> slope * x + offset on R^1.
  static AffineMap Scalar(double slope, double offset);

  /// Applies the map.
  linalg::Vector operator()(const linalg::Vector& x) const;

  /// Dimension d of the domain/codomain.
  size_t dimension() const { return b_.size(); }

  const linalg::Matrix& a() const { return a_; }
  const linalg::Vector& b() const { return b_; }

  /// Lipschitz constant of the map: the spectral norm ||A||_2, computed as
  /// sqrt(lambda_max(A^T A)) by power iteration.
  double LipschitzConstant() const;

 private:
  linalg::Matrix a_;
  linalg::Vector b_;
};

}  // namespace markov
}  // namespace eqimpact

#endif  // EQIMPACT_MARKOV_AFFINE_MAP_H_
