#ifndef EQIMPACT_CREDIT_POPULATION_H_
#define EQIMPACT_CREDIT_POPULATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "credit/income_model.h"
#include "credit/race.h"
#include "rng/random.h"

namespace eqimpact {
namespace credit {

/// A cohort of N households (the paper's "users"), stored
/// structure-of-arrays: contiguous race ids and incomes so the batch
/// engine's per-year passes stream through memory instead of chasing
/// per-user objects.
///
/// Races are sampled once at construction from the 2002 CPS shares
/// [0.1235, 0.8406, 0.0359]; incomes are resampled every year from the
/// per-race income model, exactly as in Section VII ("following the income
/// distribution of the year 2002 + k and race s, we sample the income
/// z_i(k)"). The lender only ever observes the income *code*
/// 1{z >= threshold}; race and exact income stay private.
class Population {
 public:
  /// Samples `num_users` household races. CHECK-fails on num_users == 0.
  Population(size_t num_users, rng::Random* random);

  /// Rebuilds a cohort from previously sampled race ids (checkpoint
  /// resume): identical to the sampling constructor that produced the
  /// ids, with no RNG draws. CHECK-fails on an empty vector or an
  /// out-of-range id.
  explicit Population(std::vector<uint8_t> race_ids);

  size_t size() const { return races_.size(); }
  const std::vector<Race>& races() const { return races_; }

  /// Races as dense ids, index-aligned with races(). The batch engine's
  /// per-chunk counters index by this.
  const std::vector<uint8_t>& race_ids() const { return race_ids_; }

  /// Resamples every household's income for `year`.
  void ResampleIncomes(int year, const IncomeModel& model,
                       rng::Random* random);

  /// Resamples incomes for the index range [begin, end) only, using a
  /// pre-built year sampler — the batch engine's chunked parallel path.
  /// Concurrent calls on disjoint ranges are safe; each chunk brings its
  /// own RNG stream so results are independent of the dispatch order.
  /// Does NOT mark the cohort as sampled for `income(i)` (no single
  /// range covers everyone): range callers read `incomes()` directly;
  /// only the full-cohort ResampleIncomes flips the validity flag.
  void ResampleIncomesRange(const YearIncomeSampler& sampler, size_t begin,
                            size_t end, rng::Random* random);

  /// ResampleIncomesRange from pre-drawn uniforms: `uniforms` holds
  /// 2 * (end - begin) draws, two per household in index order — the
  /// exact sequence a Random would hand YearIncomeSampler::Sample — so
  /// the sampled incomes are bit-for-bit ResampleIncomesRange's. The
  /// batch engine fills the buffer with the vectorized
  /// rng::Random::FillUniformDouble first; same concurrency contract as
  /// ResampleIncomesRange.
  void ResampleIncomesFromUniforms(const YearIncomeSampler& sampler,
                                   size_t begin, size_t end,
                                   const double* uniforms);

  /// Income of household `i` in thousands of dollars; CHECK-fails before
  /// the first resample.
  double income(size_t i) const;

  /// All incomes, index-aligned with races(). Zero before the first
  /// resample.
  const std::vector<double>& incomes() const { return incomes_; }

  /// The visible income code 1{income >= threshold} (paper: threshold 15).
  double IncomeCode(size_t i, double threshold) const;

  /// Number of households of `race` (cached; races are fixed at
  /// construction).
  size_t CountRace(Race race) const;

 private:
  std::vector<Race> races_;
  std::vector<uint8_t> race_ids_;
  std::vector<double> incomes_;
  size_t race_counts_[kNumRaces] = {0, 0, 0};
  bool incomes_sampled_ = false;
};

}  // namespace credit
}  // namespace eqimpact

#endif  // EQIMPACT_CREDIT_POPULATION_H_
