#ifndef EQIMPACT_STATS_RUNNING_STATS_H_
#define EQIMPACT_STATS_RUNNING_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "base/serial.h"

namespace eqimpact {
namespace stats {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable one-pass estimates; used for cross-trial
/// aggregation (Figure 3's mean +/- one standard deviation shades) and for
/// Monte-Carlo contractivity estimates. Value semantics; merging two
/// accumulators is supported for parallel reduction patterns.
class RunningStats {
 public:
  RunningStats() = default;

  /// Adds one observation. Inline, so that a loop adding into a local
  /// accumulator keeps the state in registers.
  void Add(double x) {
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merges another accumulator into this one (Chan et al. update).
  void Merge(const RunningStats& other);

  /// Number of observations.
  int64_t count() const { return count_; }
  /// Mean of the observations (0 when empty).
  double Mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance (0 with fewer than two observations).
  double Variance() const;
  /// Square root of Variance().
  double StdDev() const;
  /// Smallest observation (+inf when empty).
  double Min() const { return min_; }
  /// Largest observation (-inf when empty).
  double Max() const { return max_; }
  /// True when the running mean or second moment is NaN, which every
  /// later Add keeps.
  bool HasNan() const { return std::isnan(mean_) || std::isnan(m2_); }

  /// Writes the raw accumulator state (bit-exact doubles); Deserialize
  /// restores a byte-identical accumulator.
  void Serialize(base::BinaryWriter* writer) const;
  /// Restores state written by Serialize. Returns false (leaving this
  /// accumulator unspecified) if the reader runs out of bytes.
  bool Deserialize(base::BinaryReader* reader);

 private:
  // The AVX2 lane of AdrAccumulator's four-section fold
  // (stats/adr_accumulator.cc) holds four cells' fields in the lanes of
  // vector registers and replays Add on each.
  friend struct FoldLane;

  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace stats
}  // namespace eqimpact

#endif  // EQIMPACT_STATS_RUNNING_STATS_H_
