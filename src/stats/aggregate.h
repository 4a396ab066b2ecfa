#ifndef EQIMPACT_STATS_AGGREGATE_H_
#define EQIMPACT_STATS_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
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

/// The positions of a cross-section sorted stably by group id: each
/// group's members, in index order, form one run of positions(), and
/// ids() holds their ids in that order. Built once for a fixed group
/// layout, it lets every later cross-section be visited one group at a
/// time however the ids interleave.
class GroupOrder {
 public:
  GroupOrder() = default;
  explicit GroupOrder(const std::vector<uint8_t>& groups);

  size_t size() const { return positions_.size(); }
  const std::vector<size_t>& positions() const { return positions_; }
  /// ids()[t] is groups[positions()[t]].
  const std::vector<uint8_t>& ids() const { return ids_; }

 private:
  std::vector<size_t> positions_;
  std::vector<uint8_t> ids_;
};

/// Adds every values[i] to sums[groups[i]] and returns the values'
/// total, with the additions `sums[groups[i]] += values[i]; total +=
/// values[i];` make for i = 0, 1, ..., bit for bit, where `order` is
/// GroupOrder(groups). Each group's sum runs in a register, over its
/// members in index order, beside the total's chain, so no addition
/// waits on a store. CHECK-fails on a length mismatch.
double AddGroupSums(const std::vector<double>& values,
                    const GroupOrder& order, double* sums);

}  // namespace stats
}  // namespace eqimpact

#endif  // EQIMPACT_STATS_AGGREGATE_H_
