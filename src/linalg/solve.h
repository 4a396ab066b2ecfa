#ifndef EQIMPACT_LINALG_SOLVE_H_
#define EQIMPACT_LINALG_SOLVE_H_

#include <optional>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eqimpact {
namespace linalg {

/// LU factorisation with partial pivoting of a square matrix.
///
/// Factorises P A = L U once; `Solve` then back-substitutes in O(n^2).
/// Singular (to working precision) matrices are reported through
/// `ok()` / std::nullopt returns rather than by aborting, because callers
/// like the IRLS loop legitimately probe ill-conditioned systems.
class LuDecomposition {
 public:
  /// Factorises `a`; CHECK-fails if `a` is not square.
  explicit LuDecomposition(const Matrix& a);

  /// True if the factorisation succeeded (no vanishing pivot).
  bool ok() const { return ok_; }

  /// Solves A x = b; std::nullopt if singular or dimension mismatch.
  std::optional<Vector> Solve(const Vector& b) const;

 private:
  size_t n_ = 0;
  Matrix lu_;
  std::vector<size_t> pivots_;
  bool ok_ = false;
};

/// One-shot solve of A x = b via LU; std::nullopt when A is singular.
std::optional<Vector> Solve(const Matrix& a, const Vector& b);

/// Cholesky solve of a symmetric positive-definite system A x = b.
/// Faster and more stable than LU for the logistic-regression normal
/// equations. std::nullopt if A is not (numerically) SPD.
std::optional<Vector> SolveSpd(const Matrix& a, const Vector& b);

}  // namespace linalg
}  // namespace eqimpact

#endif  // EQIMPACT_LINALG_SOLVE_H_
