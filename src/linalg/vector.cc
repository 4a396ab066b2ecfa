#include "linalg/vector.h"

#include <cmath>
#include <cstdio>

#include "base/check.h"

namespace eqimpact {
namespace linalg {

Vector& Vector::operator+=(const Vector& other) {
  EQIMPACT_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  EQIMPACT_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Vector& Vector::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Vector& Vector::operator/=(double scalar) {
  EQIMPACT_CHECK_NE(scalar, 0.0);
  for (double& x : data_) x /= scalar;
  return *this;
}

double Vector::Norm2() const {
  double sum = 0.0;
  for (double x : data_) sum += x * x;
  return std::sqrt(sum);
}

double Vector::NormInf() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

double Vector::Sum() const {
  double sum = 0.0;
  for (double x : data_) sum += x;
  return sum;
}

std::string Vector::ToString() const {
  std::string out = "[";
  char buffer[32];
  for (size_t i = 0; i < data_.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.6g", data_[i]);
    out += buffer;
    if (i + 1 < data_.size()) out += ", ";
  }
  out += "]";
  return out;
}

Vector operator+(Vector lhs, const Vector& rhs) {
  lhs += rhs;
  return lhs;
}

Vector operator-(Vector lhs, const Vector& rhs) {
  lhs -= rhs;
  return lhs;
}

Vector operator*(double scalar, Vector v) {
  v *= scalar;
  return v;
}

double Dot(const Vector& a, const Vector& b) {
  EQIMPACT_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double MaxAbsDiff(const Vector& a, const Vector& b) {
  EQIMPACT_CHECK_EQ(a.size(), b.size());
  double best = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    best = std::max(best, std::fabs(a[i] - b[i]));
  }
  return best;
}

bool AllClose(const Vector& a, const Vector& b, double tolerance) {
  if (a.size() != b.size()) return false;
  return MaxAbsDiff(a, b) <= tolerance;
}

}  // namespace linalg
}  // namespace eqimpact
