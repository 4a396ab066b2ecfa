#include "stats/running_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eqimpact {
namespace stats {

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  int64_t total = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double combined_mean =
      mean_ + delta * static_cast<double>(other.count_) /
                  static_cast<double>(total);
  m2_ = m2_ + other.m2_ +
        delta * delta * static_cast<double>(count_) *
            static_cast<double>(other.count_) / static_cast<double>(total);
  mean_ = combined_mean;
  count_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

void RunningStats::Serialize(base::BinaryWriter* writer) const {
  writer->WriteI64(count_);
  writer->WriteDouble(mean_);
  writer->WriteDouble(m2_);
  writer->WriteDouble(min_);
  writer->WriteDouble(max_);
}

bool RunningStats::Deserialize(base::BinaryReader* reader) {
  count_ = reader->ReadI64();
  mean_ = reader->ReadDouble();
  m2_ = reader->ReadDouble();
  min_ = reader->ReadDouble();
  max_ = reader->ReadDouble();
  return reader->ok();
}

}  // namespace stats
}  // namespace eqimpact
