#ifndef EQIMPACT_LINALG_MATRIX_H_
#define EQIMPACT_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/vector.h"

namespace eqimpact {
namespace linalg {

/// Dense real matrix, row-major.
///
/// Sized for the problems in this library: logistic-regression normal
/// equations (a handful of features), Markov-chain transition matrices
/// (tens to a few hundred states) and small dynamical systems. All shape
/// mismatches CHECK-fail.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// Zero matrix of shape rows x cols.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Matrix of shape rows x cols filled with `value`.
  Matrix(size_t rows, size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Matrix from nested braces: Matrix m{{1, 2}, {3, 4}};
  /// All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of dimension `n`.
  static Matrix Identity(size_t n);

  /// Diagonal matrix with the entries of `diagonal`.
  static Matrix Diagonal(const Vector& diagonal);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Element access with bounds checks.
  double& operator()(size_t r, size_t c);
  double operator()(size_t r, size_t c) const;

  /// Copy of column `c` as a Vector.
  Vector Col(size_t c) const;

  // Arithmetic.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Transpose.
  Matrix Transposed() const;

  /// Maximum absolute entry.
  double NormInf() const;

  /// True if every row is a probability vector (non-negative, sums to 1
  /// within `tolerance`). Transition matrices use this as a sanity check.
  bool IsRowStochastic(double tolerance = 1e-9) const;

 private:
  // The dense product indexes raw rows (SpectralRadius squares a 32 x 32
  // matrix up to 48 times per certificate).
  friend Matrix operator*(const Matrix& lhs, const Matrix& rhs);

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix m, double scalar);
Matrix operator*(double scalar, Matrix m);

/// Matrix product; CHECK-fails unless lhs.cols() == rhs.rows().
Matrix operator*(const Matrix& lhs, const Matrix& rhs);

/// Matrix-vector product; CHECK-fails unless m.cols() == v.size().
Vector operator*(const Matrix& m, const Vector& v);

/// Row-vector-matrix product v^T M, returned as a Vector;
/// CHECK-fails unless v.size() == m.rows(). This is how distributions are
/// pushed forward through a transition matrix.
Vector MultiplyLeft(const Vector& v, const Matrix& m);

/// Entry-wise closeness test with the given tolerance.
bool AllClose(const Matrix& a, const Matrix& b, double tolerance);

}  // namespace linalg
}  // namespace eqimpact

#endif  // EQIMPACT_LINALG_MATRIX_H_
