#include "stats/adr_accumulator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/check.h"
#include "base/simd_scalar.h"

#if defined(EQIMPACT_AVX2_LANES)
#include <immintrin.h>
#endif

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

namespace {

// Clamp-then-bin, matching stats::Histogram::Add. NaN, which clamps to
// itself and has no integer conversion, counts in the last bin.
inline size_t BinOf(double value, double lo, double hi, double bin_width,
                    size_t last_bin) {
  if (std::isnan(value)) return last_bin;
  double clamped = std::clamp(value, lo, hi);
  size_t bin = static_cast<size_t>((clamped - lo) / bin_width);
  return std::min(bin, last_bin);
}

// Whether values[0, n) hold a NaN. A NaN's magnitude bits exceed
// +inf's, so +inf's bits minus them borrow into the sign bit. Integer
// operations vectorize where a loop of floating-point compares does not.
bool AnyNan(const double* values, size_t n) {
  constexpr uint64_t kMagnitude = ~(uint64_t{1} << 63);
  constexpr uint64_t kInfBits = 0x7ff0000000000000;
  uint64_t borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof(bits));
    borrow |= kInfBits - (bits & kMagnitude);
  }
  return (borrow >> 63) != 0;
}

}  // namespace

#if defined(EQIMPACT_AVX2_LANES)

// FoldRuns<4>'s AVX2 lane. The four sections' cells of one group run sit
// in the four lanes of each register, so each lane is one cell's own
// chain and nothing is reassociated. Each lane replays RunningStats::Add
// and BinOf operation for operation: the count is a double, exact below
// 2^53; one vdivpd makes the four Welford divisions and one the four
// bin quotients; min_pd(x, m) and max_pd(x, m) return what std::min(m,
// x) and std::max(m, x) return, and min_pd(hi, max_pd(lo, x)) what
// std::clamp(x, lo, hi) does. The quotient is capped at last_bin before
// its truncating cast, which for a quotient >= 0 is BinOf's
// min(bin, last_bin), and the cast narrows through int32.
struct FoldLane {
  /// True when the lane gives the scalar fold's bits for every value
  /// but NaN, which the caller's guard keeps out: no count passes 2^53,
  /// the bin index fits an int32, and the bin width is finite and
  /// positive, so BinOf's quotient is finite and >= 0 (with an infinite
  /// or zero width the scalar cast itself is undefined).
  static bool Fits(const RunningStats* cells, size_t n, size_t last_bin,
                   double bin_width) {
    constexpr int64_t kExactCount = int64_t{1} << 53;
    bool fits = last_bin <= 0x7fffffff && std::isfinite(bin_width) &&
                bin_width > 0.0 && n <= static_cast<size_t>(kExactCount);
    for (size_t j = 0; j < 4; ++j) {
      fits &= cells[j].count_ <= kExactCount - static_cast<int64_t>(n);
    }
    return fits;
  }

  __attribute__((target("avx2"))) static void Fold(
      RunningStats* cells, int64_t* const* bins, const double* values,
      size_t stride, size_t n, double lo, double hi, double bin_width,
      size_t last_bin) {
    __m256d count = _mm256_set_pd(
        static_cast<double>(cells[3].count_),
        static_cast<double>(cells[2].count_),
        static_cast<double>(cells[1].count_),
        static_cast<double>(cells[0].count_));
    __m256d mean = _mm256_set_pd(cells[3].mean_, cells[2].mean_,
                                 cells[1].mean_, cells[0].mean_);
    __m256d m2 =
        _mm256_set_pd(cells[3].m2_, cells[2].m2_, cells[1].m2_, cells[0].m2_);
    __m256d min = _mm256_set_pd(cells[3].min_, cells[2].min_, cells[1].min_,
                                cells[0].min_);
    __m256d max = _mm256_set_pd(cells[3].max_, cells[2].max_, cells[1].max_,
                                cells[0].max_);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d lo_v = _mm256_set1_pd(lo);
    const __m256d hi_v = _mm256_set1_pd(hi);
    const __m256d width = _mm256_set1_pd(bin_width);
    const __m256d last = _mm256_set1_pd(static_cast<double>(last_bin));
    alignas(16) int32_t bin[4];
    for (size_t i = 0; i < n; ++i) {
      const __m256d x =
          _mm256_set_pd(values[3 * stride + i], values[2 * stride + i],
                        values[stride + i], values[i]);
      count = _mm256_add_pd(count, one);
      const __m256d delta = _mm256_sub_pd(x, mean);
      mean = _mm256_add_pd(mean, _mm256_div_pd(delta, count));
      m2 = _mm256_add_pd(m2, _mm256_mul_pd(delta, _mm256_sub_pd(x, mean)));
      min = _mm256_min_pd(x, min);
      max = _mm256_max_pd(x, max);
      const __m256d clamped = _mm256_min_pd(hi_v, _mm256_max_pd(lo_v, x));
      const __m256d quotient =
          _mm256_div_pd(_mm256_sub_pd(clamped, lo_v), width);
      _mm_store_si128(reinterpret_cast<__m128i*>(bin),
                      _mm256_cvttpd_epi32(_mm256_min_pd(quotient, last)));
      ++bins[0][bin[0]];
      ++bins[1][bin[1]];
      ++bins[2][bin[2]];
      ++bins[3][bin[3]];
    }
    alignas(32) double lanes[4][4];
    _mm256_store_pd(lanes[0], mean);
    _mm256_store_pd(lanes[1], m2);
    _mm256_store_pd(lanes[2], min);
    _mm256_store_pd(lanes[3], max);
    for (size_t j = 0; j < 4; ++j) {
      cells[j].count_ += static_cast<int64_t>(n);
      cells[j].mean_ = lanes[0][j];
      cells[j].m2_ = lanes[1][j];
      cells[j].min_ = lanes[2][j];
      cells[j].max_ = lanes[3][j];
    }
  }
};

#endif  // EQIMPACT_AVX2_LANES

// Out of line, so that every one-section fold (AddCrossSection's runs,
// AddRun's) runs the same instructions: when two NaNs meet in an
// addition, the result's sign follows the operand order the compiler
// picked, which two inlined copies of the loop need not share. The
// moments fold into local copies that stay in registers; with several
// sections, the steps' chains, each waiting on its own last division,
// overlap.
template <size_t kSections>
__attribute__((noinline)) void AdrAccumulator::FoldRuns(size_t cell,
                                                        const double* values,
                                                        size_t stride,
                                                        size_t n) {
  RunningStats cell_stats[kSections];
  int64_t* cell_bins[kSections];
  for (size_t j = 0; j < kSections; ++j) {
    cell_stats[j] = stats_[cell + j * num_groups_];
    cell_bins[j] = &bin_counts_[(cell + j * num_groups_) * num_bins_];
  }
  // The bin counts are stores the compiler cannot tell from the shape
  // fields, so the shape is read once, before the loop.
  const double lo = lo_, hi = hi_, bin_width = bin_width_;
  const size_t last_bin = num_bins_ - 1;
  bool scalar = true;
#if defined(EQIMPACT_AVX2_LANES)
  // The lane holds four cells, one per lane.
  if constexpr (kSections == 4) {
    if (base::UseAvx2Lanes() &&
        FoldLane::Fits(cell_stats, n, last_bin, bin_width)) {
      FoldLane::Fold(cell_stats, cell_bins, values, stride, n, lo, hi,
                     bin_width, last_bin);
      scalar = false;
    }
  }
#endif
  for (size_t i = 0; scalar && i < n; ++i) {
    for (size_t j = 0; j < kSections; ++j) {
      const double value = values[j * stride + i];
      cell_stats[j].Add(value);
      ++cell_bins[j][BinOf(value, lo, hi, bin_width, last_bin)];
    }
  }
  for (size_t j = 0; j < kSections; ++j) {
    stats_[cell + j * num_groups_] = cell_stats[j];
  }
}

void AdrAccumulator::Add(size_t k, size_t g, double value) {
  size_t cell = CellIndex(k, g);
  stats_[cell].Add(value);
  ++bin_counts_[cell * num_bins_ +
                BinOf(value, lo_, hi_, bin_width_, num_bins_ - 1)];
}

void AdrAccumulator::AddCrossSection(size_t k,
                                     const std::vector<double>& values,
                                     const std::vector<uint8_t>& groups) {
  AddCrossSections(k, 1, values, groups);
}

void AdrAccumulator::AddCrossSections(size_t k, size_t num_sections,
                                      const std::vector<double>& sections,
                                      const std::vector<uint8_t>& groups) {
  const size_t n = groups.size();
  EQIMPACT_CHECK(num_sections >= 1 && num_sections <= kMaxSections);
  EQIMPACT_CHECK_EQ(sections.size(), num_sections * n);
  EQIMPACT_CHECK_LT(k, num_steps_);
  EQIMPACT_CHECK_LE(num_sections, num_steps_ - k);
  // Only kMaxSections sections fold side by side; fewer, which only a
  // trial's last batch holds, fold one at a time. Side by side, the
  // sections' chains may pick other operand orders than the one-section
  // fold. That leaves the bits alone while every NaN in play is one the
  // fold creates (inf - inf, 0 * inf), since those all carry the same
  // bits. A NaN among the values or already in a run's cells need not,
  // so with one anywhere among the values every run, and with one in a
  // run's cells that run, folds one section at a time.
  const bool side_by_side = num_sections == kMaxSections &&
                            !AnyNan(sections.data(), sections.size());
  // One fold per run of consecutive values of one group.
  for (size_t i = 0, end = 0; i < n; i = end) {
    const size_t g = groups[i];
    EQIMPACT_CHECK_LT(g, num_groups_);
    for (end = i + 1; end < n && groups[end] == g;) ++end;
    const size_t cell = k * num_groups_ + g;
    bool one_at_a_time = !side_by_side;
    for (size_t j = 0; j < num_sections && side_by_side; ++j) {
      one_at_a_time |= stats_[cell + j * num_groups_].HasNan();
    }
    if (one_at_a_time) {
      for (size_t j = 0; j < num_sections; ++j) {
        FoldRuns<1>(cell + j * num_groups_, &sections[j * n + i], 0, end - i);
      }
    } else {
      FoldRuns<kMaxSections>(cell, &sections[i], n, end - i);
    }
  }
}

void AdrAccumulator::AddRun(size_t k, size_t g, const double* values,
                            size_t n) {
  FoldRuns<1>(CellIndex(k, g), values, 0, n);
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
  if (!reader->ok() || bin_counts_.size() != expected_bins) return false;
  // Every fold and merge leaves a cell's bins non-negative and summing to
  // its count, so a cell that breaks this was not written by Serialize.
  // Subtracting keeps the sum from overflowing.
  for (size_t c = 0; c < num_cells; ++c) {
    int64_t rest = stats_[c].count();
    for (size_t b = 0; b < num_bins_; ++b) {
      const int64_t bin = bin_counts_[c * num_bins_ + b];
      if (bin < 0 || bin > rest) return false;
      rest -= bin;
    }
    if (rest != 0) return false;
  }
  return true;
}

void CrossSectionBatch::Add(size_t k, const std::vector<double>& values) {
  const size_t n = order_->size();
  EQIMPACT_CHECK_EQ(values.size(), n);
  if (buffered_ == 0) {
    first_step_ = k;
    sections_.resize(AdrAccumulator::kMaxSections * n);
  }
  EQIMPACT_CHECK_EQ(k, first_step_ + buffered_);
  double* section = &sections_[buffered_ * n];
  const size_t* positions = order_->positions().data();
  for (size_t t = 0; t < n; ++t) section[t] = values[positions[t]];
  if (++buffered_ == AdrAccumulator::kMaxSections) Flush();
}

void CrossSectionBatch::Flush() {
  if (buffered_ == 0) return;
  sections_.resize(buffered_ * order_->size());
  target_->AddCrossSections(first_step_, buffered_, sections_, order_->ids());
  buffered_ = 0;
}

}  // namespace stats
}  // namespace eqimpact
