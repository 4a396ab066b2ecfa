#include "ml/binned_dataset.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "base/check.h"

namespace eqimpact {
namespace ml {
namespace {

constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();

// FNV-1a over the quantized key ints; the index is correctness-checked
// by full key comparison, so the hash only needs to spread well.
uint64_t HashKey(const int64_t* key, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t j = 0; j < n; ++j) {
    uint64_t bits = static_cast<uint64_t>(key[j]);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Exact-mode key: the bit pattern of the double, with -0.0 folded into
// +0.0 so the two zero representations share a group.
int64_t ExactKey(double x) {
  if (x == 0.0) x = 0.0;
  int64_t bits;
  static_assert(sizeof(bits) == sizeof(x), "need 64-bit double");
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

}  // namespace

BinnedDataset::BinnedDataset(size_t num_features, BinnedDatasetOptions options)
    : num_features_(num_features), options_(std::move(options)) {
  EQIMPACT_CHECK_GT(num_features, 0u);
  if (!options_.bin_widths.empty()) {
    EQIMPACT_CHECK_EQ(options_.bin_widths.size(), num_features_);
    for (double width : options_.bin_widths) {
      EQIMPACT_CHECK(std::isfinite(width));
      EQIMPACT_CHECK_GE(width, 0.0);
    }
  }
  key_scratch_.resize(num_features_);
  Rehash(64);
}

uint64_t BinnedDataset::KeyOf(const double* features) {
  for (size_t j = 0; j < num_features_; ++j) {
    const double width =
        options_.bin_widths.empty() ? 0.0 : options_.bin_widths[j];
    if (width == 0.0) {
      key_scratch_[j] = ExactKey(features[j]);
    } else {
      // The int64 cast of a non-finite or out-of-range quotient would
      // be UB, so the bin index must stay inside the int64 range.
      EQIMPACT_CHECK(std::isfinite(features[j]));
      const double bin = std::floor(features[j] / width);
      EQIMPACT_CHECK_LT(std::fabs(bin), 9.2e18);
      key_scratch_[j] = static_cast<int64_t>(bin);
    }
  }
  return HashKey(key_scratch_.data(), num_features_);
}

void BinnedDataset::Rehash(size_t num_slots) {
  // Reinsert from the stored per-group hashes — no key re-hashing. The
  // insertion scan is in group order, but slot contents never influence
  // group numbering, so the index stays an order-free lookup structure.
  slots_.assign(num_slots, kNoGroup);
  const size_t mask = num_slots - 1;
  for (size_t g = 0; g < num_groups(); ++g) {
    size_t b = static_cast<size_t>(hashes_[g]) & mask;
    while (slots_[b] != kNoGroup) b = (b + 1) & mask;
    slots_[b] = static_cast<uint32_t>(g);
  }
}

size_t BinnedDataset::GroupFor(uint64_t h, const double* features) {
  const size_t mask = slots_.size() - 1;
  size_t b = static_cast<size_t>(h) & mask;
  for (uint32_t g = slots_[b]; g != kNoGroup; g = slots_[b]) {
    if (hashes_[g] == h &&
        std::memcmp(&keys_[g * num_features_], key_scratch_.data(),
                    num_features_ * sizeof(int64_t)) == 0) {
      return g;
    }
    b = (b + 1) & mask;
  }
  // New group: store the quantized key, its hash and its representative
  // row, and claim the empty slot the probe stopped at.
  const size_t g = num_groups();
  EQIMPACT_CHECK_LT(g, static_cast<size_t>(kNoGroup));
  keys_.insert(keys_.end(), key_scratch_.begin(), key_scratch_.end());
  for (size_t j = 0; j < num_features_; ++j) {
    const double width =
        options_.bin_widths.empty() ? 0.0 : options_.bin_widths[j];
    rows_.push_back(width == 0.0 ? (features[j] == 0.0 ? 0.0 : features[j])
                                 : (static_cast<double>(key_scratch_[j]) +
                                    0.5) *
                                       width);
  }
  weight_.push_back(0.0);
  positive_.push_back(0.0);
  hashes_.push_back(h);
  slots_[b] = static_cast<uint32_t>(g);
  // Grow at ~70% load so linear probe runs stay short.
  if (num_groups() * 10 > slots_.size() * 7) Rehash(slots_.size() * 2);
  return g;
}

size_t BinnedDataset::AddRow(const double* features, double label,
                             double weight) {
  EQIMPACT_CHECK(label == 0.0 || label == 1.0);
  EQIMPACT_CHECK_GT(weight, 0.0);
  const size_t g = GroupFor(KeyOf(features), features);
  weight_[g] += weight;
  total_weight_ += weight;
  if (label == 1.0) {
    positive_[g] += weight;
    total_positive_ += weight;
  }
  ++num_rows_absorbed_;
  return g;
}

void BinnedDataset::Add(const linalg::Vector& features, double label,
                        double weight) {
  EQIMPACT_CHECK_EQ(features.size(), num_features_);
  AddRow(features.data().data(), label, weight);
}

void BinnedDataset::AddBatch(const double* features, const double* labels,
                             size_t count) {
  for (size_t i = 0; i < count; ++i) {
    AddRow(features + i * num_features_, labels[i], 1.0);
  }
}

void SlotCounts::Clear() {
  for (const uint32_t slot : seen_) {
    counts_[2 * slot] = 0;
    counts_[2 * slot + 1] = 0;
  }
  seen_.clear();
}

void BinnedDataset::AddCounts(const SlotCounts& counts,
                              const double* slot_rows,
                              std::vector<uint32_t>* slot_groups) {
  EQIMPACT_CHECK_EQ(slot_groups->size(), counts.num_slots());
  for (const uint32_t slot : counts.seen()) {
    uint32_t& g = (*slot_groups)[slot];
    if (g == kNoSlotGroup) {
      const double* row = slot_rows + slot * num_features_;
      g = static_cast<uint32_t>(GroupFor(KeyOf(row), row));
    }
    const size_t positives = counts.positives(slot);
    const size_t rows = counts.negatives(slot) + positives;
    weight_[g] += static_cast<double>(rows);
    total_weight_ += static_cast<double>(rows);
    if (positives > 0) {
      positive_[g] += static_cast<double>(positives);
      total_positive_ += static_cast<double>(positives);
    }
    num_rows_absorbed_ += rows;
  }
}

BinnedDataset BinnedDataset::FromDataset(const Dataset& data,
                                         BinnedDatasetOptions options) {
  BinnedDataset binned(data.num_features(), std::move(options));
  for (size_t i = 0; i < data.size(); ++i) {
    binned.AddRow(data.row(i), data.label(i), 1.0);
  }
  return binned;
}

void BinnedDataset::Clear() {
  rows_.clear();
  keys_.clear();
  weight_.clear();
  positive_.clear();
  hashes_.clear();
  total_weight_ = 0.0;
  total_positive_ = 0.0;
  num_rows_absorbed_ = 0;
  slots_.assign(slots_.size(), kNoGroup);
}

void BinnedDataset::Serialize(base::BinaryWriter* writer) const {
  writer->WriteSize(num_features_);
  writer->WriteDoubleVector(options_.bin_widths);
  writer->WriteDoubleVector(rows_);
  writer->WriteI64Vector(keys_);
  writer->WriteDoubleVector(weight_);
  writer->WriteDoubleVector(positive_);
  writer->WriteSize(hashes_.size());
  for (uint64_t h : hashes_) writer->WriteU64(h);
  writer->WriteDouble(total_weight_);
  writer->WriteDouble(total_positive_);
  writer->WriteSize(num_rows_absorbed_);
}

bool BinnedDataset::Deserialize(base::BinaryReader* reader) {
  const size_t num_features = reader->ReadSize();
  const std::vector<double> bin_widths = reader->ReadDoubleVector();
  if (!reader->ok() || num_features != num_features_ ||
      bin_widths != options_.bin_widths) {
    return false;
  }
  rows_ = reader->ReadDoubleVector();
  keys_ = reader->ReadI64Vector();
  weight_ = reader->ReadDoubleVector();
  positive_ = reader->ReadDoubleVector();
  size_t num_hashes = reader->ReadSize();
  if (!reader->ok() || num_hashes != weight_.size()) return false;
  hashes_.resize(num_hashes);
  for (uint64_t& h : hashes_) h = reader->ReadU64();
  total_weight_ = reader->ReadDouble();
  total_positive_ = reader->ReadDouble();
  num_rows_absorbed_ = reader->ReadSize();
  if (!reader->ok() || rows_.size() != num_hashes * num_features_ ||
      keys_.size() != num_hashes * num_features_ ||
      positive_.size() != num_hashes) {
    return false;
  }
  // Rebuild the slot table at the same <=70% load factor AddRow grows
  // it to, so post-resume insertions probe and grow exactly as they
  // would have in the uninterrupted run.
  size_t num_slots = 64;
  while (num_hashes * 10 > num_slots * 7) num_slots *= 2;
  Rehash(num_slots);
  return true;
}

const double* BinnedDataset::row(size_t g) const {
  EQIMPACT_CHECK_LT(g, num_groups());
  return &rows_[g * num_features_];
}

double BinnedDataset::weight(size_t g) const {
  EQIMPACT_CHECK_LT(g, num_groups());
  return weight_[g];
}

double BinnedDataset::positive_weight(size_t g) const {
  EQIMPACT_CHECK_LT(g, num_groups());
  return positive_[g];
}

}  // namespace ml
}  // namespace eqimpact
