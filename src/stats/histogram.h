#ifndef EQIMPACT_STATS_HISTOGRAM_H_
#define EQIMPACT_STATS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eqimpact {
namespace stats {

/// Fixed-bin histogram over [lo, hi].
///
/// Observations below `lo` land in the first bin and above `hi` in the
/// last (clamping, not rejection), matching how the paper's Figure 5
/// shades ADR densities over [0, 1]. Counts and fractions are exposed.
class Histogram {
 public:
  /// Histogram with `num_bins` equal-width bins spanning [lo, hi].
  /// CHECK-fails unless num_bins > 0 and lo < hi.
  Histogram(double lo, double hi, size_t num_bins);

  /// Adds one observation (clamped into range).
  void Add(double x);

  /// Adds every value in `values`.
  void AddAll(const std::vector<double>& values);

  size_t num_bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int64_t total_count() const { return total_; }

  /// Raw count in bin `b`.
  int64_t count(size_t b) const;

  /// Fraction of observations in bin `b` (0 when empty).
  double Fraction(size_t b) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace stats
}  // namespace eqimpact

#endif  // EQIMPACT_STATS_HISTOGRAM_H_
