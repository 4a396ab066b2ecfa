#include "stats/aggregate.h"

#include <array>

#include "base/check.h"
#include "stats/running_stats.h"

namespace eqimpact {
namespace stats {

SeriesEnvelope AggregateEnvelope(
    const std::vector<std::vector<double>>& series) {
  EQIMPACT_CHECK(!series.empty());
  const size_t length = series[0].size();
  for (const std::vector<double>& s : series) {
    EQIMPACT_CHECK_EQ(s.size(), length);
  }
  SeriesEnvelope envelope;
  envelope.mean.resize(length);
  envelope.std_dev.resize(length);
  for (size_t k = 0; k < length; ++k) {
    RunningStats acc;
    for (const std::vector<double>& s : series) acc.Add(s[k]);
    envelope.mean[k] = acc.Mean();
    envelope.std_dev[k] = acc.StdDev();
  }
  return envelope;
}

std::vector<double> CrossSection(
    const std::vector<std::vector<double>>& series, size_t k) {
  std::vector<double> out;
  out.reserve(series.size());
  for (const std::vector<double>& s : series) {
    EQIMPACT_CHECK_LT(k, s.size());
    out.push_back(s[k]);
  }
  return out;
}

GroupOrder::GroupOrder(const std::vector<uint8_t>& groups)
    : positions_(groups.size()), ids_(groups.size()) {
  // A counting sort: starts[g] is group g's first slot, then its next.
  std::array<size_t, 257> starts{};
  for (const uint8_t g : groups) ++starts[g + 1];
  for (size_t g = 1; g < starts.size(); ++g) starts[g] += starts[g - 1];
  for (size_t i = 0; i < groups.size(); ++i) {
    const size_t t = starts[groups[i]]++;
    positions_[t] = i;
    ids_[t] = groups[i];
  }
}

double AddGroupSums(const std::vector<double>& values,
                    const GroupOrder& order, double* sums) {
  EQIMPACT_CHECK_EQ(values.size(), order.size());
  const size_t n = values.size();
  const size_t* positions = order.positions().data();
  const uint8_t* ids = order.ids().data();
  double total = 0.0;
  for (size_t t = 0, end = 0; t < n; t = end) {
    const uint8_t g = ids[t];
    double sum = sums[g];
    for (end = t; end < n && ids[end] == g; ++end) {
      sum += values[positions[end]];
      total += values[end];
    }
    sums[g] = sum;
  }
  return total;
}

}  // namespace stats
}  // namespace eqimpact
