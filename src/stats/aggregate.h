#ifndef EQIMPACT_STATS_AGGREGATE_H_
#define EQIMPACT_STATS_AGGREGATE_H_

#include <cstddef>
#include <vector>

namespace eqimpact {
namespace stats {

/// Per-time-step mean and standard deviation across a bundle of series.
struct SeriesEnvelope {
  std::vector<double> mean;
  std::vector<double> std_dev;
};

/// Aggregates `series` (all of equal length, at least one) into a
/// per-time-step mean +/- std envelope. This realises the paper's Figure 3:
/// "solid curves depict the mean value ... across five trials ... error
/// shades display mean +/- one standard deviation".
SeriesEnvelope AggregateEnvelope(
    const std::vector<std::vector<double>>& series);

/// Cross-section of a bundle at time `k`: the vector of series[i][k].
std::vector<double> CrossSection(
    const std::vector<std::vector<double>>& series, size_t k);

}  // namespace stats
}  // namespace eqimpact

#endif  // EQIMPACT_STATS_AGGREGATE_H_
