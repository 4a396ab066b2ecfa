#include "credit/adr_filter.h"

#include "runtime/kernels.h"

namespace eqimpact {
namespace credit {

AdrFilter::AdrFilter(size_t num_users, double forgetting_factor)
    : forgetting_factor_(forgetting_factor),
      offer_weight_(num_users, 0.0),
      default_weight_(num_users, 0.0),
      offer_count_(num_users, 0) {
  EQIMPACT_CHECK_GT(num_users, 0u);
  EQIMPACT_CHECK(forgetting_factor_ > 0.0 && forgetting_factor_ <= 1.0);
}

int64_t AdrFilter::UserOffers(size_t i) const {
  EQIMPACT_CHECK_LT(i, offer_weight_.size());
  return offer_count_[i];
}

std::vector<double> AdrFilter::UserAdrSnapshot() const {
  std::vector<double> snapshot(offer_weight_.size());
  AdrInto(0, offer_weight_.size(), snapshot.data());
  return snapshot;
}

void AdrFilter::AdrInto(size_t begin, size_t end, double* out) const {
  EQIMPACT_CHECK_LE(begin, end);
  EQIMPACT_CHECK_LE(end, offer_weight_.size());
  runtime::kernels::GuardedRatio(default_weight_.data() + begin,
                                 offer_weight_.data() + begin, end - begin,
                                 out);
}

}  // namespace credit
}  // namespace eqimpact
