#ifndef EQIMPACT_ML_BINNED_DATASET_H_
#define EQIMPACT_ML_BINNED_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/serial.h"
#include "linalg/vector.h"
#include "ml/dataset.h"

namespace eqimpact {
namespace ml {

/// Grouping configuration of a BinnedDataset.
struct BinnedDatasetOptions {
  /// Per-feature bin widths, indexed by feature. Empty (the default)
  /// groups every feature exactly; a width of 0 groups that feature by
  /// its exact bit pattern (-0.0 is folded into +0.0); a width w > 0
  /// groups by floor(x / w) and represents the group by the bin centre
  /// (k + 0.5) * w, so every surrogate feature value differs from the
  /// raw one it stands for by at most w / 2.
  std::vector<double> bin_widths;
};

/// Unit-weight observations tallied over a dense slot space in which
/// every slot stands for one fixed feature row: per-slot label counts
/// plus the touched slots in first-seen order. BinnedDataset::AddCounts
/// folds a tally exactly as the row-by-row AddRow calls it replaces, so
/// a producer can tally consecutive ranges of one insertion sequence in
/// parallel and fold the tallies in range order (the credit loop's
/// per-chunk refit history).
class SlotCounts {
 public:
  SlotCounts() = default;
  /// Tally over slots [0, num_slots), all counts zero.
  explicit SlotCounts(size_t num_slots) : counts_(2 * num_slots, 0) {}

  /// Counts one observation of `slot` with label 1 (`positive`) or 0.
  void Add(size_t slot, bool positive) {
    EQIMPACT_CHECK_LT(2 * slot + 1, counts_.size());
    uint32_t* counts = &counts_[2 * slot];
    if (counts[0] == 0 && counts[1] == 0) {
      seen_.push_back(static_cast<uint32_t>(slot));
    }
    ++counts[positive ? 1 : 0];
  }

  /// Zeroes the touched slots; keeps the capacity.
  void Clear();

  size_t num_slots() const { return counts_.size() / 2; }
  /// Touched slots in the order of their first observation.
  const std::vector<uint32_t>& seen() const { return seen_; }
  uint32_t negatives(size_t slot) const { return counts_[2 * slot]; }
  uint32_t positives(size_t slot) const { return counts_[2 * slot + 1]; }

 private:
  std::vector<uint32_t> counts_;  // (label 0, label 1) per slot.
  std::vector<uint32_t> seen_;
};

/// Sufficient-statistics view of a binary-classification training set:
/// unique (or binned) feature rows with a total weight and a positive
/// (label 1) weight each.
///
/// The credit loop's features are (trailing ADR, income code) with the
/// code in {0, 1} and, under the paper's accumulating filter, ADR values
/// that are rationals d/o with o bounded by the number of simulated
/// years — so the O(num_users x num_years) decision history collapses
/// into a few hundred weighted groups, independent of cohort size. The
/// weighted log-likelihood over the groups equals the raw-row
/// log-likelihood exactly when rows repeat exactly, and within the
/// documented bin tolerance otherwise, so LogisticRegression::Fit on the
/// grouped form recovers the raw fit's optimum.
///
/// Group order is first-occurrence order of the insertion sequence and
/// is therefore deterministic for a deterministic insertion sequence;
/// the fit's chunked accumulation relies on this (never on hash order).
class BinnedDataset {
 public:
  /// Grouped dataset for feature dimension `num_features`. CHECK-fails
  /// if options.bin_widths is non-empty with a size other than
  /// `num_features` or holds a negative or non-finite width.
  explicit BinnedDataset(size_t num_features,
                         BinnedDatasetOptions options = BinnedDatasetOptions());

  /// Folds one observation with the given weight into its group and
  /// returns the group index (stable for the dataset's lifetime until
  /// Clear). CHECK-fails unless label is 0 or 1 and weight > 0.
  size_t AddRow(const double* features, double label, double weight = 1.0);

  /// AddRow from a Vector (checked dimension; convenience, not hot path).
  void Add(const linalg::Vector& features, double label, double weight = 1.0);

  /// Folds `count` unit-weight examples stored row-major in `features`
  /// with their `labels` — the credit loop's per-chunk yearly merge.
  void AddBatch(const double* features, const double* labels, size_t count);

  /// Marks an unknown slot in AddCounts' slot -> group cache.
  static constexpr uint32_t kNoSlotGroup = 0xffffffffu;

  /// Folds a tally, slot by slot in first-seen order. Slot s stands for
  /// the row at slot_rows + s * num_features(); `slot_groups` (one entry
  /// per slot, kNoSlotGroup where unknown, kept across calls until
  /// Clear) caches each slot's group. While every weight in the dataset
  /// is a whole number below 2^53, the result, group order and
  /// num_rows_absorbed included, is bitwise that of unit-weight AddRow
  /// calls for the tallied observations in sequence order: such sums are
  /// exact in any order, and a group is created at its first slot's
  /// first observation either way. Slots whose rows share a key (1/2 and
  /// 2/4) share a group.
  void AddCounts(const SlotCounts& counts, const double* slot_rows,
                 std::vector<uint32_t>* slot_groups);

  /// Groups an existing raw dataset (unit weights).
  static BinnedDataset FromDataset(
      const Dataset& data, BinnedDatasetOptions options = BinnedDatasetOptions());

  /// Drops every group (the single-year retraining ablation's per-year
  /// rebuild); keeps num_features, bin widths and capacity.
  void Clear();

  size_t num_features() const { return num_features_; }
  size_t num_groups() const { return weight_.size(); }
  bool empty() const { return weight_.empty(); }

  /// Representative feature row of group `g` as `num_features()`
  /// contiguous doubles: the exact value for exact features, the bin
  /// centre for binned ones.
  const double* row(size_t g) const;

  /// Total weight of group `g` and its positive (label 1) share.
  double weight(size_t g) const;
  double positive_weight(size_t g) const;

  /// Contiguous group storage for the fit's chunked accumulation.
  const double* raw_rows() const { return rows_.data(); }
  const double* raw_weights() const { return weight_.data(); }
  const double* raw_positives() const { return positive_.data(); }

  /// Sum of all weights / of the positive weights.
  double total_weight() const { return total_weight_; }
  double total_positive() const { return total_positive_; }

  /// Raw observations folded in so far (group cardinality, not weight).
  size_t num_rows_absorbed() const { return num_rows_absorbed_; }

  /// True if both classes carry weight — a fit is only meaningful then.
  bool HasBothClasses() const {
    return total_positive_ > 0.0 && total_positive_ < total_weight_;
  }

  const BinnedDatasetOptions& options() const { return options_; }

  /// Writes the full grouped state (representatives, quantized keys,
  /// weights, group hashes, totals) so Deserialize restores a dataset
  /// whose group order, group contents and future insertion behaviour
  /// are byte-identical to the saved one's.
  void Serialize(base::BinaryWriter* writer) const;
  /// Restores state written by Serialize into this dataset; the hash
  /// index is rebuilt, not stored. Returns false (leaving this dataset
  /// unspecified) on a truncated or inconsistent record, or one written
  /// by a dataset with another num_features or other bin widths.
  bool Deserialize(base::BinaryReader* reader);

 private:
  /// Quantizes `features` into key_scratch_ and returns its hash.
  uint64_t KeyOf(const double* features);
  /// Index of the group with the key currently in key_scratch_ (hash
  /// `h`), appending a fresh group for `features` if absent.
  size_t GroupFor(uint64_t h, const double* features);

  size_t num_features_;
  BinnedDatasetOptions options_;
  std::vector<double> rows_;      // Representatives, groups x features.
  std::vector<int64_t> keys_;     // Quantized keys, groups x features.
  std::vector<double> weight_;    // Per-group total weight.
  std::vector<double> positive_;  // Per-group positive weight.
  double total_weight_ = 0.0;
  double total_positive_ = 0.0;
  size_t num_rows_absorbed_ = 0;

  // Open-addressed hash index over the quantized keys: slots_ is a
  // power-of-two table of group indices probed linearly from
  // hash & mask (kNoGroup = empty), grown at ~70% load. hashes_ stores
  // each group's full 64-bit key hash so a probe compares one cached
  // hash word before touching the keys and a grow reinserts without
  // re-hashing. Lookup still confirms by full quantized-key comparison,
  // so hash collisions stay correct; group order (first occurrence) is
  // untouched by the index — the slot table only remembers *where*
  // groups live, never reorders them.
  std::vector<uint32_t> slots_;   // Power-of-two table, kNoGroup = empty.
  std::vector<uint64_t> hashes_;  // Per-group key hash.
  std::vector<int64_t> key_scratch_;

  void Rehash(size_t num_slots);
};

}  // namespace ml
}  // namespace eqimpact

#endif  // EQIMPACT_ML_BINNED_DATASET_H_
