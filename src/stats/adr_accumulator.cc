#include "stats/adr_accumulator.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace eqimpact {
namespace stats {

AdrAccumulator::AdrAccumulator(size_t num_groups, size_t num_steps,
                               size_t num_bins, double lo, double hi)
    : num_groups_(num_groups),
      num_steps_(num_steps),
      num_bins_(num_bins),
      lo_(lo),
      hi_(hi) {
  EQIMPACT_CHECK_GT(num_groups, 0u);
  EQIMPACT_CHECK_GT(num_steps, 0u);
  EQIMPACT_CHECK_GT(num_bins, 0u);
  EQIMPACT_CHECK_LT(lo, hi);
  bin_width_ = (hi - lo) / static_cast<double>(num_bins);
  stats_.assign(num_steps * num_groups, RunningStats());
  bin_counts_.assign(num_steps * num_groups * num_bins, 0);
}

size_t AdrAccumulator::CellIndex(size_t k, size_t g) const {
  EQIMPACT_CHECK_LT(k, num_steps_);
  EQIMPACT_CHECK_LT(g, num_groups_);
  return k * num_groups_ + g;
}

size_t AdrAccumulator::BinIndex(double value) const {
  // Clamp-then-bin, matching stats::Histogram::Add. NaN, which clamps to
  // itself and has no integer conversion, counts in the last bin.
  if (std::isnan(value)) return num_bins_ - 1;
  double clamped = std::clamp(value, lo_, hi_);
  size_t bin = static_cast<size_t>((clamped - lo_) / bin_width_);
  return std::min(bin, num_bins_ - 1);
}

// Out of line, so that both cross-section forms run the same
// instructions: the sign of a NaN that an operation like inf - inf
// creates follows the operand order the compiler picked for an addition,
// which two inlined copies of the loop need not share. The moments fold
// into a local copy that stays in registers.
__attribute__((noinline)) void AdrAccumulator::FoldRun(size_t cell,
                                                       const double* values,
                                                       size_t n) {
  RunningStats cell_stats = stats_[cell];
  int64_t* cell_bins = &bin_counts_[cell * num_bins_];
  for (size_t i = 0; i < n; ++i) {
    cell_stats.Add(values[i]);
    ++cell_bins[BinIndex(values[i])];
  }
  stats_[cell] = cell_stats;
}

void AdrAccumulator::Add(size_t k, size_t g, double value) {
  size_t cell = CellIndex(k, g);
  stats_[cell].Add(value);
  ++bin_counts_[cell * num_bins_ + BinIndex(value)];
}

void AdrAccumulator::AddCrossSection(size_t k,
                                     const std::vector<double>& values,
                                     const std::vector<uint8_t>& groups) {
  EQIMPACT_CHECK_EQ(values.size(), groups.size());
  EQIMPACT_CHECK_LT(k, num_steps_);
  // One fold per run of consecutive values of one group.
  for (size_t i = 0, end = 0; i < values.size(); i = end) {
    const size_t g = groups[i];
    EQIMPACT_CHECK_LT(g, num_groups_);
    for (end = i + 1; end < values.size() && groups[end] == g;) ++end;
    FoldRun(k * num_groups_ + g, &values[i], end - i);
  }
}

void AdrAccumulator::AddGroupCrossSection(size_t k, size_t g,
                                          const std::vector<double>& values,
                                          const std::vector<uint8_t>& groups,
                                          std::vector<double>* scratch) {
  EQIMPACT_CHECK_EQ(values.size(), groups.size());
  const size_t cell = CellIndex(k, g);
  const size_t n = values.size();
  const uint8_t* ids = groups.data();
  // Byte compares keep the counting loop vectorizable.
  const uint8_t id = static_cast<uint8_t>(g);
  size_t members = 0;
  uint8_t top = 0;
  for (size_t i = 0; i < n; ++i) {
    members += ids[i] == id;
    top = std::max(top, ids[i]);
  }
  EQIMPACT_CHECK(n == 0 || top < num_groups_);
  if (g > 0xff) return;  // Group ids are bytes: no members.
  // Branch-free compaction: every value is written, and the cursor only
  // moves past group g's, so the buffer needs one spare slot.
  scratch->resize(members + 1);
  double* compacted = scratch->data();
  for (size_t i = 0, m = 0; i < n && members > 0; ++i) {
    compacted[m] = values[i];
    m += ids[i] == id;
  }
  FoldRun(cell, compacted, members);
}

void AdrAccumulator::Merge(const AdrAccumulator& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  EQIMPACT_CHECK_EQ(num_groups_, other.num_groups_);
  EQIMPACT_CHECK_EQ(num_steps_, other.num_steps_);
  EQIMPACT_CHECK_EQ(num_bins_, other.num_bins_);
  EQIMPACT_CHECK_EQ(lo_, other.lo_);
  EQIMPACT_CHECK_EQ(hi_, other.hi_);
  for (size_t c = 0; c < stats_.size(); ++c) stats_[c].Merge(other.stats_[c]);
  for (size_t b = 0; b < bin_counts_.size(); ++b) {
    bin_counts_[b] += other.bin_counts_[b];
  }
}

const RunningStats& AdrAccumulator::stats(size_t k, size_t g) const {
  return stats_[CellIndex(k, g)];
}

int64_t AdrAccumulator::StepCount(size_t k) const {
  int64_t total = 0;
  for (size_t g = 0; g < num_groups_; ++g) total += count(k, g);
  return total;
}

int64_t AdrAccumulator::bin_count(size_t k, size_t g, size_t b) const {
  EQIMPACT_CHECK_LT(b, num_bins_);
  return bin_counts_[CellIndex(k, g) * num_bins_ + b];
}

int64_t AdrAccumulator::StepBinCount(size_t k, size_t b) const {
  int64_t total = 0;
  for (size_t g = 0; g < num_groups_; ++g) total += bin_count(k, g, b);
  return total;
}

double AdrAccumulator::StepBinFraction(size_t k, size_t b) const {
  int64_t total = StepCount(k);
  if (total == 0) return 0.0;
  return static_cast<double>(StepBinCount(k, b)) /
         static_cast<double>(total);
}

double AdrAccumulator::QuantileFromBins(double p, const int64_t* bins,
                                        int64_t total, double min_value,
                                        double max_value) const {
  if (total == 0) return 0.0;
  if (p <= 0.0) return min_value;
  if (p >= 1.0) return max_value;
  double target = p * static_cast<double>(total);
  int64_t seen = 0;
  for (size_t b = 0; b < num_bins_; ++b) {
    if (bins[b] == 0) continue;
    double within = target - static_cast<double>(seen);
    seen += bins[b];
    if (static_cast<double>(seen) >= target) {
      double fraction = within / static_cast<double>(bins[b]);
      double estimate =
          lo_ + (static_cast<double>(b) + fraction) * bin_width_;
      return std::clamp(estimate, min_value, max_value);
    }
  }
  return max_value;
}

double AdrAccumulator::ApproxQuantile(size_t k, size_t g, double p) const {
  size_t cell = CellIndex(k, g);
  const RunningStats& cell_stats = stats_[cell];
  if (cell_stats.count() == 0) return 0.0;
  // The cell's bins are contiguous in bin_counts_; no copy needed.
  return QuantileFromBins(p, &bin_counts_[cell * num_bins_],
                          cell_stats.count(), cell_stats.Min(),
                          cell_stats.Max());
}

void AdrAccumulator::Serialize(base::BinaryWriter* writer) const {
  writer->WriteSize(num_groups_);
  writer->WriteSize(num_steps_);
  writer->WriteSize(num_bins_);
  writer->WriteDouble(lo_);
  writer->WriteDouble(hi_);
  writer->WriteDouble(bin_width_);
  writer->WriteSize(stats_.size());
  for (const RunningStats& cell : stats_) cell.Serialize(writer);
  writer->WriteI64Vector(bin_counts_);
}

bool AdrAccumulator::Deserialize(base::BinaryReader* reader) {
  num_groups_ = reader->ReadSize();
  num_steps_ = reader->ReadSize();
  num_bins_ = reader->ReadSize();
  lo_ = reader->ReadDouble();
  hi_ = reader->ReadDouble();
  bin_width_ = reader->ReadDouble();
  const size_t num_cells = reader->ReadSize();
  // Only shapes the constructor (or the empty default) produces, and no
  // more cells than the bytes left can hold: a corrupt shape fails here,
  // before it sizes an allocation or a bin index.
  const bool shaped =
      num_groups_ > 0 && num_steps_ > 0 && num_bins_ > 0 && lo_ < hi_ &&
      bin_width_ == (hi_ - lo_) / static_cast<double>(num_bins_);
  const bool blank = num_groups_ == 0 && num_steps_ == 0 && num_bins_ == 0 &&
                     lo_ == 0.0 && hi_ == 1.0 && bin_width_ == 0.0;
  size_t expected_cells = 0;
  size_t expected_bins = 0;
  constexpr size_t kCellBytes = sizeof(int64_t) + 4 * sizeof(double);
  if (!reader->ok() || !(shaped || blank) ||
      __builtin_mul_overflow(num_steps_, num_groups_, &expected_cells) ||
      __builtin_mul_overflow(expected_cells, num_bins_, &expected_bins) ||
      num_cells != expected_cells ||
      num_cells > reader->remaining() / kCellBytes) {
    return false;
  }
  stats_.assign(num_cells, RunningStats());
  for (RunningStats& cell : stats_) {
    if (!cell.Deserialize(reader)) return false;
  }
  bin_counts_ = reader->ReadI64Vector();
  return reader->ok() && bin_counts_.size() == expected_bins;
}

}  // namespace stats
}  // namespace eqimpact
