#ifndef EQIMPACT_LINALG_VECTOR_H_
#define EQIMPACT_LINALG_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "base/check.h"

namespace eqimpact {
namespace linalg {

/// Dense real vector with the arithmetic this library needs.
///
/// The storage is a contiguous std::vector<double>; copies are deep.
/// Dimensions are checked with CHECK-style assertions in every operation,
/// so shape bugs fail fast rather than corrupting a simulation.
class Vector {
 public:
  /// Empty (zero-dimensional) vector.
  Vector() = default;

  /// Zero vector of dimension `n`.
  explicit Vector(size_t n) : data_(n, 0.0) {}

  /// Vector of dimension `n` filled with `value`.
  Vector(size_t n, double value) : data_(n, value) {}

  /// Vector from a braced list: Vector v{1.0, 2.0};
  Vector(std::initializer_list<double> values) : data_(values) {}

  /// Vector adopting the contents of `values`.
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  Vector(const Vector&) = default;
  Vector& operator=(const Vector&) = default;
  Vector(Vector&&) = default;
  Vector& operator=(Vector&&) = default;

  /// Dimension.
  size_t size() const { return data_.size(); }

  /// Element access with bounds checks (inline: one compare). The sparse
  /// products and eigensolvers index data() in their hot loops instead.
  double& operator[](size_t i) {
    EQIMPACT_CHECK_LT(i, data_.size());
    return data_[i];
  }
  double operator[](size_t i) const {
    EQIMPACT_CHECK_LT(i, data_.size());
    return data_[i];
  }

  /// Underlying storage (contiguous, row vector layout).
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  // Arithmetic. All binary operations CHECK matching dimensions.
  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double scalar);
  Vector& operator/=(double scalar);

  /// Euclidean norm.
  double Norm2() const;
  /// Maximum absolute entry (0 for an empty vector).
  double NormInf() const;
  /// Sum of entries.
  double Sum() const;

  /// "[v0, v1, ...]" with 6 significant digits, for diagnostics.
  std::string ToString() const;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(double scalar, Vector v);

/// Inner product; CHECK-fails on dimension mismatch.
double Dot(const Vector& a, const Vector& b);

/// Maximum absolute difference between entries (the metric used by the
/// convergence checks); CHECK-fails on dimension mismatch.
double MaxAbsDiff(const Vector& a, const Vector& b);

/// True if every entry of `a` is within `tolerance` of `b`'s.
bool AllClose(const Vector& a, const Vector& b, double tolerance);

}  // namespace linalg
}  // namespace eqimpact

#endif  // EQIMPACT_LINALG_VECTOR_H_
