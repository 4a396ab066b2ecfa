#include "linalg/solve.h"

#include <cmath>

#include "base/check.h"

namespace eqimpact {
namespace linalg {
namespace {

// Pivots smaller than this (relative to the matrix scale) are treated as
// zero, i.e. the matrix is declared singular.
constexpr double kPivotTolerance = 1e-13;

}  // namespace

LuDecomposition::LuDecomposition(const Matrix& a) : lu_(a) {
  EQIMPACT_CHECK_EQ(a.rows(), a.cols());
  n_ = a.rows();
  pivots_.resize(n_);
  double scale = std::max(a.NormInf(), 1.0);
  ok_ = true;
  for (size_t col = 0; col < n_; ++col) {
    // Partial pivoting: pick the largest entry in this column.
    size_t pivot_row = col;
    double best = std::fabs(lu_(col, col));
    for (size_t r = col + 1; r < n_; ++r) {
      double candidate = std::fabs(lu_(r, col));
      if (candidate > best) {
        best = candidate;
        pivot_row = r;
      }
    }
    pivots_[col] = pivot_row;
    if (best <= kPivotTolerance * scale) {
      ok_ = false;
      return;
    }
    if (pivot_row != col) {
      for (size_t c = 0; c < n_; ++c) {
        std::swap(lu_(col, c), lu_(pivot_row, c));
      }
    }
    double inv_pivot = 1.0 / lu_(col, col);
    for (size_t r = col + 1; r < n_; ++r) {
      double factor = lu_(r, col) * inv_pivot;
      lu_(r, col) = factor;
      if (factor == 0.0) continue;
      for (size_t c = col + 1; c < n_; ++c) {
        lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }
}

std::optional<Vector> LuDecomposition::Solve(const Vector& b) const {
  if (!ok_ || b.size() != n_) return std::nullopt;
  Vector x = b;
  // Apply the recorded row swaps.
  for (size_t i = 0; i < n_; ++i) {
    if (pivots_[i] != i) std::swap(x[i], x[pivots_[i]]);
  }
  // Forward substitution (L has a unit diagonal).
  for (size_t r = 1; r < n_; ++r) {
    double sum = x[r];
    for (size_t c = 0; c < r; ++c) sum -= lu_(r, c) * x[c];
    x[r] = sum;
  }
  // Back substitution.
  for (size_t ri = n_; ri-- > 0;) {
    double sum = x[ri];
    for (size_t c = ri + 1; c < n_; ++c) sum -= lu_(ri, c) * x[c];
    x[ri] = sum / lu_(ri, ri);
  }
  return x;
}

std::optional<Vector> Solve(const Matrix& a, const Vector& b) {
  LuDecomposition lu(a);
  return lu.Solve(b);
}

std::optional<Vector> SolveSpd(const Matrix& a, const Vector& b) {
  EQIMPACT_CHECK_EQ(a.rows(), a.cols());
  if (b.size() != a.rows()) return std::nullopt;
  const size_t n = a.rows();
  // Cholesky factorisation A = L L^T.
  Matrix l(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c <= r; ++c) {
      double sum = a(r, c);
      for (size_t k = 0; k < c; ++k) sum -= l(r, k) * l(c, k);
      if (r == c) {
        if (sum <= 0.0) return std::nullopt;  // Not positive definite.
        l(r, c) = std::sqrt(sum);
      } else {
        l(r, c) = sum / l(c, c);
      }
    }
  }
  // Forward substitution L y = b.
  Vector y(n);
  for (size_t r = 0; r < n; ++r) {
    double sum = b[r];
    for (size_t c = 0; c < r; ++c) sum -= l(r, c) * y[c];
    y[r] = sum / l(r, r);
  }
  // Back substitution L^T x = y.
  Vector x(n);
  for (size_t ri = n; ri-- > 0;) {
    double sum = y[ri];
    for (size_t c = ri + 1; c < n; ++c) sum -= l(c, ri) * x[c];
    x[ri] = sum / l(ri, ri);
  }
  return x;
}

}  // namespace linalg
}  // namespace eqimpact
