#include "credit/adr_filter.h"

#include "runtime/kernels.h"

namespace eqimpact {
namespace credit {

AdrFilter::AdrFilter(std::vector<Race> races, double forgetting_factor)
    : races_(std::move(races)),
      forgetting_factor_(forgetting_factor),
      offer_weight_(races_.size(), 0.0),
      default_weight_(races_.size(), 0.0),
      offer_count_(races_.size(), 0) {
  EQIMPACT_CHECK(!races_.empty());
  EQIMPACT_CHECK(forgetting_factor_ > 0.0 && forgetting_factor_ <= 1.0);
  for (Race race : races_) {
    size_t id = static_cast<size_t>(race);
    EQIMPACT_CHECK_LT(id, kNumRaces);
    ++race_counts_[id];
  }
}

int64_t AdrFilter::UserOffers(size_t i) const {
  EQIMPACT_CHECK_LT(i, races_.size());
  return offer_count_[i];
}

double AdrFilter::RaceAdr(Race race) const {
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < races_.size(); ++i) {
    if (races_[i] != race) continue;
    sum += UserAdr(i);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

AdrFilter::Summary AdrFilter::Summarize() const {
  // One pass instead of one per race plus one overall; the per-race sums
  // accumulate in user-index order, exactly like RaceAdr.
  double race_sum[kNumRaces] = {0.0, 0.0, 0.0};
  double overall_sum = 0.0;
  for (size_t i = 0; i < races_.size(); ++i) {
    double adr = UserAdr(i);
    race_sum[static_cast<size_t>(races_[i])] += adr;
    overall_sum += adr;
  }
  Summary summary;
  for (size_t r = 0; r < kNumRaces; ++r) {
    summary.race_adr[r] =
        race_counts_[r] == 0
            ? 0.0
            : race_sum[r] / static_cast<double>(race_counts_[r]);
  }
  summary.overall_adr = overall_sum / static_cast<double>(races_.size());
  return summary;
}

std::vector<double> AdrFilter::UserAdrSnapshot() const {
  std::vector<double> snapshot(races_.size());
  AdrInto(0, races_.size(), snapshot.data());
  return snapshot;
}

void AdrFilter::AdrInto(size_t begin, size_t end, double* out) const {
  EQIMPACT_CHECK_LE(begin, end);
  EQIMPACT_CHECK_LE(end, races_.size());
  runtime::kernels::GuardedRatio(default_weight_.data() + begin,
                                 offer_weight_.data() + begin, end - begin,
                                 out);
}

}  // namespace credit
}  // namespace eqimpact
