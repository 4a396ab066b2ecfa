#ifndef EQIMPACT_STATS_ADR_ACCUMULATOR_H_
#define EQIMPACT_STATS_ADR_ACCUMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/serial.h"
#include "stats/aggregate.h"
#include "stats/running_stats.h"

namespace eqimpact {
namespace stats {

/// Streaming aggregate of a bundle of bounded per-step series, grouped
/// by a small categorical attribute. The group axis is scenario-defined
/// (dense ids 0..num_groups-1 with labels owned by the producer): the
/// credit loop's protected race classes, the matching market's skill
/// classes, the broadcast ensemble's initial-condition classes, ...
///
/// This replaces materializing num_trials x num_units x num_steps raw
/// values (the Figures 4/5 pool) with O(num_groups x num_steps x
/// num_bins) state: per (group, step) Welford moments plus a fixed-bin
/// histogram over [lo, hi]. It answers everything the figure benches need
/// — per-group envelopes (Figure 4's quantile fan, approximated from the
/// histogram with exact min/max), group-blind per-step densities
/// (Figure 5) — in memory bounded independently of the number of units
/// and trials.
///
/// Observations are clamped into [lo, hi] for binning (matching
/// stats::Histogram), while the moments see the raw value. Merging is
/// supported for parallel reduction: per-trial accumulators merged in
/// trial order give results bitwise-identical at every thread count.
class AdrAccumulator {
 public:
  /// Empty (shape-less) accumulator. Assign or Merge a shaped
  /// accumulator before use: with zero steps/groups, per-cell queries
  /// (count, stats, bin_count, ApproxQuantile, ...) CHECK-fail on their
  /// index bounds; only empty() and the per-step totals over zero groups
  /// are meaningful.
  AdrAccumulator() = default;

  /// Accumulator over `num_steps` steps with values grouped into
  /// `num_groups` categories, binned into `num_bins` equal-width bins
  /// spanning [lo, hi]. CHECK-fails unless all three sizes are positive
  /// and lo < hi.
  AdrAccumulator(size_t num_groups, size_t num_steps, size_t num_bins,
                 double lo = 0.0, double hi = 1.0);

  /// The most cross-sections one AddCrossSections call folds.
  static constexpr size_t kMaxSections = 4;

  size_t num_groups() const { return num_groups_; }
  size_t num_steps() const { return num_steps_; }
  size_t num_bins() const { return num_bins_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  bool empty() const { return stats_.empty(); }

  /// Accumulates one observation of group `g` at step `k`.
  void Add(size_t k, size_t g, double value);

  /// Accumulates a full cross-section at step `k`: values[i] belongs to
  /// group groups[i]. CHECK-fails on length mismatch.
  void AddCrossSection(size_t k, const std::vector<double>& values,
                       const std::vector<uint8_t>& groups);

  /// The cross-sections of `num_sections` (1 to kMaxSections) steps k,
  /// k + 1, ... that share one group layout: sections[j * groups.size()
  /// + i] belongs to group groups[i] at step k + j. Every cell ends
  /// bitwise as num_sections AddCrossSection calls leave it: each cell
  /// still folds its values in index order, and with kMaxSections
  /// sections the steps' cells, whose Welford chains are independent,
  /// are folded side by side. CHECK-fails on a length mismatch or a step
  /// past the last.
  void AddCrossSections(size_t k, size_t num_sections,
                        const std::vector<double>& sections,
                        const std::vector<uint8_t>& groups);

  /// Folds values[0, n) in order into cell (k, g) through the fold loop
  /// AddCrossSection runs on each run of one group. A cell fed its
  /// group's values of a cross-section in index order, in runs of any
  /// length, ends bitwise as AddCrossSection leaves it. Only cell (k, g)
  /// is written, so runs into distinct cells may fold concurrently: the
  /// credit engine folds each race's run as a stage of its chunk pass.
  void AddRun(size_t k, size_t g, const double* values, size_t n);

  /// Merges `other` into this accumulator. CHECK-fails unless the shapes
  /// (groups, steps, bins, range) match. Merge order affects the
  /// floating-point moments, so parallel reductions must merge in a fixed
  /// order (e.g. trial index) to stay deterministic.
  void Merge(const AdrAccumulator& other);

  /// Welford moments of (step `k`, group `g`).
  const RunningStats& stats(size_t k, size_t g) const;

  /// Observation count at (step, group) / at step `k` over all groups.
  int64_t count(size_t k, size_t g) const { return stats(k, g).count(); }
  int64_t StepCount(size_t k) const;

  /// Histogram count of (step `k`, group `g`, bin `b`).
  int64_t bin_count(size_t k, size_t g, size_t b) const;

  /// Group-blind histogram count / fraction of bin `b` at step `k`
  /// (Figure 5's per-year density row; fraction is 0 when the step is
  /// empty).
  int64_t StepBinCount(size_t k, size_t b) const;
  double StepBinFraction(size_t k, size_t b) const;

  /// Approximate p-quantile (p in [0, 1]) of group `g` at step `k`,
  /// linearly interpolated within the histogram bin containing the
  /// target rank and clamped to the exact observed [min, max]; p = 0 and
  /// p = 1 return the exact min/max. Returns 0 when the cell is empty.
  double ApproxQuantile(size_t k, size_t g, double p) const;

  /// Writes the full accumulator state — shape plus every cell's raw
  /// Welford moments and bin counts — such that Deserialize restores a
  /// byte-identical accumulator (empty accumulators round-trip too).
  void Serialize(base::BinaryWriter* writer) const;
  /// Restores state written by Serialize. Returns false (leaving this
  /// accumulator unspecified) on a truncated or inconsistent record,
  /// including a shape no constructor makes, more cells than the
  /// record's remaining bytes can hold, and a cell with a negative bin
  /// or with bins that do not sum to its count; it never allocates more
  /// than the reader has bytes left.
  bool Deserialize(base::BinaryReader* reader);

 private:
  size_t CellIndex(size_t k, size_t g) const;
  /// Folds values[j * stride + i], i in [0, n), in order into cell
  /// `cell + j * num_groups_` (step k + j's cell of the group), for each
  /// j < kSections: the one fold loop behind every cross-section form.
  template <size_t kSections>
  void FoldRuns(size_t cell, const double* values, size_t stride, size_t n);
  double QuantileFromBins(double p, const int64_t* bins, int64_t total,
                          double min_value, double max_value) const;

  size_t num_groups_ = 0;
  size_t num_steps_ = 0;
  size_t num_bins_ = 0;
  double lo_ = 0.0;
  double hi_ = 1.0;
  double bin_width_ = 0.0;
  // Indexed [k * num_groups_ + g]; bins additionally by * num_bins_ + b.
  std::vector<RunningStats> stats_;
  std::vector<int64_t> bin_counts_;
};

/// Feeds an AdrAccumulator the cross-sections of consecutive steps that
/// share one group layout, AdrAccumulator::kMaxSections steps to an
/// AddCrossSections call. Each step's values are buffered in group
/// order, so each group is one run of the fold however the layout
/// interleaves its ids; every cell still folds its values in index
/// order. Until Flush(), up to kMaxSections - 1 steps wait here, not in
/// the accumulator.
class CrossSectionBatch {
 public:
  /// Folds into `target` by the layout `order` sorts, which the caller
  /// keeps alive, and sets before the first Add, while the batch holds
  /// steps.
  CrossSectionBatch(AdrAccumulator* target, const GroupOrder* order)
      : target_(target), order_(order) {}

  /// Buffers step k's cross-section; k follows the last step added.
  void Add(size_t k, const std::vector<double>& values);
  /// Folds the steps still buffered. Call it after the last step.
  void Flush();

 private:
  AdrAccumulator* target_;
  const GroupOrder* order_;
  size_t first_step_ = 0;
  size_t buffered_ = 0;
  std::vector<double> sections_;
};

}  // namespace stats
}  // namespace eqimpact

#endif  // EQIMPACT_STATS_ADR_ACCUMULATOR_H_
