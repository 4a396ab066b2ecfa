#include "stats/aggregate.h"

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

}  // namespace stats
}  // namespace eqimpact
