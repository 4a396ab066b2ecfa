#include "markov/affine_map.h"

#include <cmath>

#include "base/check.h"
#include "linalg/symmetric_eigen.h"

namespace eqimpact {
namespace markov {

AffineMap::AffineMap(linalg::Matrix a, linalg::Vector b)
    : a_(std::move(a)), b_(std::move(b)) {
  EQIMPACT_CHECK_EQ(a_.rows(), a_.cols());
  EQIMPACT_CHECK_EQ(a_.rows(), b_.size());
}

AffineMap AffineMap::Scalar(double slope, double offset) {
  linalg::Matrix a(1, 1);
  a(0, 0) = slope;
  linalg::Vector b{offset};
  return AffineMap(std::move(a), std::move(b));
}

linalg::Vector AffineMap::operator()(const linalg::Vector& x) const {
  EQIMPACT_CHECK_EQ(x.size(), dimension());
  return a_ * x + b_;
}

double AffineMap::LipschitzConstant() const {
  if (dimension() == 1) return std::fabs(a_(0, 0));
  // Exact spectral norm via the Jacobi eigensolver: robust even for
  // clustered singular values, where power iteration converges slowly.
  return linalg::SpectralNorm(a_);
}

}  // namespace markov
}  // namespace eqimpact
