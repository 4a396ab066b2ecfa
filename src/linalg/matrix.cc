#include "linalg/matrix.h"

#include <cmath>

#include "base/check.h"

namespace eqimpact {
namespace linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    EQIMPACT_CHECK_EQ(row.size(), cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& diagonal) {
  Matrix m(diagonal.size(), diagonal.size());
  for (size_t i = 0; i < diagonal.size(); ++i) m(i, i) = diagonal[i];
  return m;
}

double& Matrix::operator()(size_t r, size_t c) {
  EQIMPACT_CHECK_LT(r, rows_);
  EQIMPACT_CHECK_LT(c, cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(size_t r, size_t c) const {
  EQIMPACT_CHECK_LT(r, rows_);
  EQIMPACT_CHECK_LT(c, cols_);
  return data_[r * cols_ + c];
}

Vector Matrix::Col(size_t c) const {
  EQIMPACT_CHECK_LT(c, cols_);
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  EQIMPACT_CHECK_EQ(rows_, other.rows_);
  EQIMPACT_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  EQIMPACT_CHECK_EQ(rows_, other.rows_);
  EQIMPACT_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = data_[r * cols_ + c];
  }
  return out;
}

double Matrix::NormInf() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

bool Matrix::IsRowStochastic(double tolerance) const {
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < cols_; ++c) {
      double p = data_[r * cols_ + c];
      if (p < -tolerance) return false;
      sum += p;
    }
    if (std::fabs(sum - 1.0) > tolerance) return false;
  }
  return true;
}

Matrix operator-(Matrix lhs, const Matrix& rhs) {
  lhs -= rhs;
  return lhs;
}

Matrix operator*(Matrix m, double scalar) {
  m *= scalar;
  return m;
}

Matrix operator*(double scalar, Matrix m) {
  m *= scalar;
  return m;
}

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
  EQIMPACT_CHECK_EQ(lhs.cols_, rhs.rows_);
  Matrix out(lhs.rows_, rhs.cols_);
  const size_t inner = lhs.cols_;
  const size_t cols = rhs.cols_;
  // Raw rows, in the r-k-c order of out(r, c) += lhs(r, k) * rhs(k, c).
  for (size_t r = 0; r < lhs.rows_; ++r) {
    const double* lhs_row = lhs.data_.data() + r * inner;
    double* out_row = out.data_.data() + r * cols;
    for (size_t k = 0; k < inner; ++k) {
      const double lv = lhs_row[k];
      if (lv == 0.0) continue;
      const double* rhs_row = rhs.data_.data() + k * cols;
      for (size_t c = 0; c < cols; ++c) out_row[c] += lv * rhs_row[c];
    }
  }
  return out;
}

Vector operator*(const Matrix& m, const Vector& v) {
  EQIMPACT_CHECK_EQ(m.cols(), v.size());
  Vector out(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < m.cols(); ++c) sum += m(r, c) * v[c];
    out[r] = sum;
  }
  return out;
}

Vector MultiplyLeft(const Vector& v, const Matrix& m) {
  EQIMPACT_CHECK_EQ(v.size(), m.rows());
  Vector out(m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    double vr = v[r];
    if (vr == 0.0) continue;
    for (size_t c = 0; c < m.cols(); ++c) out[c] += vr * m(r, c);
  }
  return out;
}

bool AllClose(const Matrix& a, const Matrix& b, double tolerance) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      if (std::fabs(a(r, c) - b(r, c)) > tolerance) return false;
    }
  }
  return true;
}

}  // namespace linalg
}  // namespace eqimpact
