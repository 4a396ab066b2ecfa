#include "stats/histogram.h"

#include <algorithm>

#include "base/check.h"

namespace eqimpact {
namespace stats {

Histogram::Histogram(double lo, double hi, size_t num_bins)
    : lo_(lo), hi_(hi) {
  EQIMPACT_CHECK_GT(num_bins, 0u);
  EQIMPACT_CHECK_LT(lo, hi);
  bin_width_ = (hi - lo) / static_cast<double>(num_bins);
  counts_.assign(num_bins, 0);
}

void Histogram::Add(double x) {
  double clamped = std::clamp(x, lo_, hi_);
  size_t bin = static_cast<size_t>((clamped - lo_) / bin_width_);
  bin = std::min(bin, counts_.size() - 1);
  ++counts_[bin];
  ++total_;
}

void Histogram::AddAll(const std::vector<double>& values) {
  for (double v : values) Add(v);
}

int64_t Histogram::count(size_t b) const {
  EQIMPACT_CHECK_LT(b, counts_.size());
  return counts_[b];
}

double Histogram::Fraction(size_t b) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(b)) / static_cast<double>(total_);
}

}  // namespace stats
}  // namespace eqimpact
