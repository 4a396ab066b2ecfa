#include "credit/population.h"

#include "base/check.h"
#include "rng/categorical.h"

namespace eqimpact {
namespace credit {

Population::Population(size_t num_users, rng::Random* random) {
  EQIMPACT_CHECK_GT(num_users, 0u);
  std::vector<double> shares(std::begin(kRaceShares2002),
                             std::end(kRaceShares2002));
  rng::Categorical race_distribution(shares);
  races_.reserve(num_users);
  race_ids_.reserve(num_users);
  for (size_t i = 0; i < num_users; ++i) {
    size_t id = race_distribution.Sample(random);
    races_.push_back(static_cast<Race>(id));
    race_ids_.push_back(static_cast<uint8_t>(id));
    ++race_counts_[id];
  }
  incomes_.assign(num_users, 0.0);
}

Population::Population(std::vector<uint8_t> race_ids)
    : race_ids_(std::move(race_ids)) {
  EQIMPACT_CHECK_GT(race_ids_.size(), 0u);
  races_.reserve(race_ids_.size());
  for (uint8_t id : race_ids_) {
    EQIMPACT_CHECK_LT(static_cast<size_t>(id), kNumRaces);
    races_.push_back(static_cast<Race>(id));
    ++race_counts_[id];
  }
  incomes_.assign(race_ids_.size(), 0.0);
}

void Population::ResampleIncomes(int year, const IncomeModel& model,
                                 rng::Random* random) {
  const YearIncomeSampler sampler(model, year);
  ResampleIncomesRange(sampler, 0, races_.size(), random);
  incomes_sampled_ = true;
}

void Population::ResampleIncomesRange(const YearIncomeSampler& sampler,
                                      size_t begin, size_t end,
                                      rng::Random* random) {
  EQIMPACT_CHECK_LE(begin, end);
  EQIMPACT_CHECK_LE(end, races_.size());
  for (size_t i = begin; i < end; ++i) {
    incomes_[i] = sampler.Sample(races_[i], random);
  }
}

void Population::ResampleIncomesFromUniforms(const YearIncomeSampler& sampler,
                                             size_t begin, size_t end,
                                             const double* uniforms) {
  EQIMPACT_CHECK_LE(begin, end);
  EQIMPACT_CHECK_LE(end, races_.size());
  for (size_t i = begin; i < end; ++i) {
    incomes_[i] = sampler.SampleFromUniforms(
        races_[i], uniforms[2 * (i - begin)], uniforms[2 * (i - begin) + 1]);
  }
}

double Population::income(size_t i) const {
  EQIMPACT_CHECK(incomes_sampled_);
  EQIMPACT_CHECK_LT(i, incomes_.size());
  return incomes_[i];
}

double Population::IncomeCode(size_t i, double threshold) const {
  return income(i) >= threshold ? 1.0 : 0.0;
}

size_t Population::CountRace(Race race) const {
  size_t id = static_cast<size_t>(race);
  EQIMPACT_CHECK_LT(id, kNumRaces);
  return race_counts_[id];
}

}  // namespace credit
}  // namespace eqimpact
