#ifndef EQIMPACT_CREDIT_ADR_FILTER_H_
#define EQIMPACT_CREDIT_ADR_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/check.h"

namespace eqimpact {
namespace credit {

/// The closed loop's filter (Figure 1): accumulates repayment actions into
/// per-user average default rates (paper equation (12)).
///
/// A *default* is a mortgage offered but not repaid: y_i(k) = 0 given
/// pi(k, i) = 1. For user i,
///   ADR_i(k) = (#defaults of i up to k) / (#offers to i up to k),
/// and 0 before the first offer. The race-wise rate ADR_s(k), the mean
/// of ADR_i(k) over users of race s, is the credit engine's to compute
/// (it folds it inside its yearly pass); the filter knows no races.
///
/// Storage is structure-of-arrays (parallel weight/count vectors); the
/// per-user `Update`/`UserAdr` pair is inline and touches only user i's
/// slots, so the batch engine may update disjoint index ranges from
/// different threads concurrently.
///
/// An optional forgetting factor turns the accumulating average into an
/// exponentially weighted one — an ablation of the paper's filter choice
/// (the accumulating average corresponds to forgetting_factor = 1).
class AdrFilter {
 public:
  /// Filter over `num_users` users (at least one). `forgetting_factor`
  /// in (0, 1]; 1 reproduces the paper's accumulating average exactly.
  explicit AdrFilter(size_t num_users, double forgetting_factor = 1.0);

  size_t num_users() const { return offer_weight_.size(); }

  /// Records the outcome of user `i` at the current step: whether a
  /// mortgage was offered and whether it was repaid. Non-offers leave the
  /// user's ADR unchanged (no repayment event takes place).
  void Update(size_t i, bool offered, bool repaid) {
    EQIMPACT_CHECK_LT(i, offer_weight_.size());
    if (!offered) return;
    offer_weight_[i] = forgetting_factor_ * offer_weight_[i] + 1.0;
    default_weight_[i] =
        forgetting_factor_ * default_weight_[i] + (repaid ? 0.0 : 1.0);
    ++offer_count_[i];
  }

  /// ADR_i after all updates so far (0 before any offer).
  double UserAdr(size_t i) const {
    EQIMPACT_CHECK_LT(i, offer_weight_.size());
    if (offer_weight_[i] <= 0.0) return 0.0;
    return default_weight_[i] / offer_weight_[i];
  }

  /// Number of offers user `i` has received.
  int64_t UserOffers(size_t i) const;

  /// Raw filter state of user `i`: the (possibly forgetting-weighted)
  /// offer weight and default weight whose guarded ratio is UserAdr.
  /// Under forgetting_factor == 1 both are exact small integers (offer
  /// and default counts), which is what lets the credit engine index its
  /// dense (offers, defaults) -> history-group table off them.
  double UserOfferWeight(size_t i) const {
    EQIMPACT_CHECK_LT(i, offer_weight_.size());
    return offer_weight_[i];
  }
  double UserDefaultWeight(size_t i) const {
    EQIMPACT_CHECK_LT(i, offer_weight_.size());
    return default_weight_[i];
  }

  /// Writes UserAdr(i) for every i in [begin, end) into
  /// out[0..end - begin) through the vectorized guarded-ratio kernel —
  /// bit-for-bit the per-user calls. The batch engine's per-chunk read
  /// of the trailing ADR features and its per-chunk write of the year's
  /// cross-section.
  void AdrInto(size_t begin, size_t end, double* out) const;

  /// Snapshot of every user's ADR.
  std::vector<double> UserAdrSnapshot() const;

  /// Raw per-user state arrays — the checkpoint layer's serialization
  /// view.
  const std::vector<double>& offer_weights() const { return offer_weight_; }
  const std::vector<double>& default_weights() const {
    return default_weight_;
  }
  const std::vector<int64_t>& offer_counts() const { return offer_count_; }

  /// Overwrites the per-user state with previously saved arrays
  /// (checkpoint resume). CHECK-fails unless all three sizes equal
  /// num_users().
  void RestoreState(std::vector<double> offer_weight,
                    std::vector<double> default_weight,
                    std::vector<int64_t> offer_count) {
    EQIMPACT_CHECK_EQ(offer_weight.size(), offer_weight_.size());
    EQIMPACT_CHECK_EQ(default_weight.size(), offer_weight_.size());
    EQIMPACT_CHECK_EQ(offer_count.size(), offer_weight_.size());
    offer_weight_ = std::move(offer_weight);
    default_weight_ = std::move(default_weight);
    offer_count_ = std::move(offer_count);
  }

 private:
  double forgetting_factor_;
  // With forgetting factor 1 these are plain counters; otherwise they are
  // exponentially weighted sums (weight and weighted default count).
  std::vector<double> offer_weight_;
  std::vector<double> default_weight_;
  std::vector<int64_t> offer_count_;
};

}  // namespace credit
}  // namespace eqimpact

#endif  // EQIMPACT_CREDIT_ADR_FILTER_H_
