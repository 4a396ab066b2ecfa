#include "market/matching_market.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "base/check.h"
#include "rng/random.h"
#include "runtime/seed_sequence.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace market {
namespace {

/// First position in sums[0, valid) whose running sum exceeds u, given
/// that sums[valid - 1] does: std::upper_bound's answer over the
/// non-decreasing sums, by a search whose steps depend only on `valid`,
/// so its one data-dependent choice per step is a conditional move.
size_t FirstSumAbove(const double* sums, size_t valid, double u) {
  const double* base = sums;
  for (size_t len = valid; len > 1;) {
    const size_t half = len / 2;
    base = u < base[half - 1] ? base : base + half;
    len -= half;
  }
  return static_cast<size_t>(base - sums);
}

/// FirstSumAbove(sums, valid, u), started from a guess. With steps of
/// about the mean weight, the first sum above u sits near position
/// u * valid / sums[valid - 1], so the guess and its neighbours are
/// checked with FirstSumAbove's comparison (u < sums[p]), and only the
/// side the guess missed is searched. Each answer is the one position
/// whose sum exceeds u while the sum before it does not, so it is
/// FirstSumAbove's. The guess is capped in double before its cast: a
/// product that overflows is infinite, and the cap also holds for NaN.
size_t GuessSumAbove(const double* sums, size_t valid, double u) {
  const double guess = u * static_cast<double>(valid) / sums[valid - 1];
  const size_t p = guess < static_cast<double>(valid - 1)
                       ? static_cast<size_t>(guess)
                       : valid - 1;
  if (u < sums[p]) {
    if (p == 0 || !(u < sums[p - 1])) return p;
    if (p == 1 || !(u < sums[p - 2])) return p - 1;
    return FirstSumAbove(sums, p - 1, u);
  }
  // u < sums[valid - 1], so p < valid - 1 here.
  if (u < sums[p + 1]) return p + 1;
  return p + 2 + FirstSumAbove(sums + p + 2, valid - p - 2, u);
}

/// Draws `slots` workers from the unmatched pool without replacement,
/// uniformly when `weights` is empty, else with probability proportional
/// to each worker's weight. A weighted draw takes the first pool position
/// whose running sum of positive weights, added in pool order, exceeds
/// u = U * total. The running sums are kept between draws: a swap-remove
/// at position p leaves the sums before p as they were, and those from p
/// on too when the entry moved into p weighs exactly what the drawn one
/// did (always, under equal weights). A draw below the last kept sum
/// searches them; any other resumes the scan where they end, with the
/// same additions. Every sum and every pick is therefore the one a fresh
/// scan of the shrinking pool would make, in the same rng stream. `pool`
/// and `sums` are scratch that keeps its capacity across rounds.
void FillExploreSlots(size_t slots, const std::vector<double>& weights,
                      rng::Random* match_rng, std::vector<uint8_t>* matched,
                      std::vector<size_t>* pool_buffer,
                      std::vector<double>* sums_buffer) {
  const size_t n = matched->size();
  std::vector<size_t>& pool = *pool_buffer;
  pool.resize(n);
  size_t unmatched = 0;
  for (size_t i = 0; i < n; ++i) {
    pool[unmatched] = i;
    unmatched += !(*matched)[i];
  }
  pool.resize(unmatched);
  const auto fill_uniform = [&pool, match_rng, matched](size_t count) {
    match_rng->Shuffle(&pool);
    for (size_t t = 0; t < count && t < pool.size(); ++t) {
      (*matched)[pool[t]] = 1;
    }
  };
  if (weights.empty()) {
    fill_uniform(slots);
    return;
  }
  double total = 0.0;
  for (size_t i : pool) total += weights[i];
  sums_buffer->resize(pool.size());
  double* sums = sums_buffer->data();
  size_t valid = 0;  // sums[0, valid) are the scan's running sums.
  for (size_t s = 0; s < slots && !pool.empty(); ++s) {
    if (total <= 0.0) {
      // All remaining weight is zero: the rest of the lottery is uniform.
      fill_uniform(slots - s);
      return;
    }
    const double u = match_rng->UniformDouble() * total;
    size_t pick = pool.size();
    if (valid > 0 && u < sums[valid - 1]) {
      pick = GuessSumAbove(sums, valid, u);
    } else {
      double cumulative = valid > 0 ? sums[valid - 1] : 0.0;
      while (pick == pool.size() && valid < pool.size()) {
        const double weight = weights[pool[valid]];
        if (weight > 0.0) {
          cumulative += weight;
          if (u < cumulative) pick = valid;
        }
        sums[valid++] = cumulative;
      }
    }
    if (pick == pool.size()) {
      // Rounding left u beyond the last sum: fall back to the last
      // *positive-weight* entry, so a zero-weight worker is never drawn
      // while weighted mass remains.
      while (pick > 0 && weights[pool[pick - 1]] <= 0.0) --pick;
      if (pick == 0) {
        // No positive-weight entry left even though subtraction residue
        // kept total > 0: the weighted mass is exhausted, so the rest of
        // the lottery is uniform, exactly like the total <= 0 branch.
        fill_uniform(slots - s);
        return;
      }
      --pick;
    }
    const size_t worker = pool[pick];
    (*matched)[worker] = 1;
    total -= weights[worker];
    if (weights[pool.back()] != weights[worker]) valid = std::min(valid, pick);
    pool[pick] = pool.back();
    pool.pop_back();
    valid = std::min(valid, pool.size());
  }
}

/// The `slots`-th highest of values[0, n) (1 <= slots <= n): the value
/// std::nth_element puts at position slots - 1 under std::greater. It
/// partitions the values around `pivot` (any value but NaN) and selects
/// only on the side where that position falls; when it falls among the
/// values equal to the pivot, the answer is the pivot. `above` and
/// `below` are scratch of n values.
double HighestAt(const double* values, size_t n, size_t slots, double pivot,
                 double* above, double* below) {
  size_t num_above = 0;
  size_t num_below = 0;
  for (size_t i = 0; i < n; ++i) {
    above[num_above] = values[i];
    below[num_below] = values[i];
    num_above += values[i] > pivot;
    num_below += values[i] < pivot;
  }
  if (slots <= num_above) {
    std::nth_element(above, above + (slots - 1), above + num_above,
                     std::greater<double>());
    return above[slots - 1];
  }
  const size_t at_or_above = n - num_below;
  if (slots <= at_or_above) return pivot;
  const size_t rest = slots - at_or_above;
  std::nth_element(below, below + (rest - 1), below + num_below,
                   std::greater<double>());
  return below[rest - 1];
}

}  // namespace

MatchingMarketResult RunMatchingMarket(MatchingRule rule,
                                       const MatchingMarketOptions& options) {
  return RunMatchingMarket(rule, options, RoundObserver());
}

MatchingMarketResult RunMatchingMarket(MatchingRule rule,
                                       const MatchingMarketOptions& options,
                                       const RoundObserver& observer) {
  EQIMPACT_CHECK_GT(options.num_workers, 0u);
  EQIMPACT_CHECK(options.capacity_fraction > 0.0 &&
                 options.capacity_fraction <= 1.0);
  EQIMPACT_CHECK(options.exploration >= 0.0 && options.exploration <= 1.0);
  EQIMPACT_CHECK_GT(options.rounds, 0u);
  EQIMPACT_CHECK(options.base_skill > 0.0 && options.base_skill < 1.0);
  EQIMPACT_CHECK_GT(options.prior_weight, 0.0);

  const size_t n = options.num_workers;
  const size_t capacity = std::max<size_t>(
      1, static_cast<size_t>(options.capacity_fraction *
                             static_cast<double>(n)));

  // Library-wide seed-derivation convention: stream 0 = skills, and one
  // child namespace per round (matching stream 0, outcome stream 1), so
  // each round's randomness is a pure function of (seed, round).
  const runtime::SeedSequence seeds(options.seed);
  rng::Random skill_rng(seeds.Seed(0));
  const runtime::SeedSequence round_seeds = seeds.Child(1);

  MatchingMarketResult result;
  result.skill.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.skill[i] = options.heterogeneous_skill
                          ? skill_rng.UniformDouble(kHeterogeneousSkillLo,
                                                    kHeterogeneousSkillHi)
                          : options.base_skill;
  }

  // Rating filter state: Bayesian running average with a prior.
  std::vector<double> rating_count(n, options.prior_weight);
  std::vector<double> rating_sum(n, options.prior_weight * options.prior_mean);
  std::vector<int64_t> matches(n, 0);

  // Observer-steerable controls, persistent across rounds.
  RoundControls controls;
  controls.exploration = options.exploration;
  std::vector<double> running_rate(n, 0.0);

  // Per-round scratch, allocated once.
  std::vector<size_t> order(n);
  std::vector<double> reputation(n);
  std::vector<double> above(n);
  std::vector<double> below(n);
  std::vector<uint8_t> matched(n);
  std::vector<size_t> pool;
  std::vector<double> sums;
  std::vector<size_t> rated(n);
  std::vector<double> draws(n);
  // The last exploit cut, which pivots the next round's selection; every
  // worker starts at the prior's reputation, so round 0 needs no search.
  double cut = rating_sum[0] / rating_count[0];
  for (size_t round = 0; round < options.rounds; ++round) {
    std::fill(matched.begin(), matched.end(), 0);
    const runtime::SeedSequence round_streams = round_seeds.Child(round);
    rng::Random match_rng(round_streams.Seed(0));
    rng::Random outcome_rng(round_streams.Seed(1));

    // How much of the capacity is allocated by reputation vs lottery.
    const double exploration = std::clamp(controls.exploration, 0.0, 1.0);
    size_t explore_slots = 0;
    switch (rule) {
      case MatchingRule::kTopScore:
        explore_slots = 0;
        break;
      case MatchingRule::kEpsilonGreedy:
        explore_slots = static_cast<size_t>(exploration *
                                            static_cast<double>(capacity));
        break;
      case MatchingRule::kUniformRandom:
        explore_slots = capacity;
        break;
    }
    const size_t exploit_slots = capacity - explore_slots;

    // Exploitation: the exploit_slots highest reputations, ties broken
    // by the shuffled order. The cut is the exploit_slots-th highest
    // reputation; every worker above it is matched, then the first
    // workers at it in shuffled order. That is the set a stable sort of
    // the shuffled order by descending reputation puts first.
    std::iota(order.begin(), order.end(), 0u);
    match_rng.Shuffle(&order);
    if (exploit_slots > 0) {
      for (size_t i = 0; i < n; ++i) {
        reputation[i] = rating_sum[i] / rating_count[i];
      }
      cut = HighestAt(reputation.data(), n, exploit_slots, cut, above.data(),
                      below.data());
      size_t at_cut = exploit_slots;
      for (size_t i = 0; i < n; ++i) {
        const uint8_t take = reputation[i] > cut;
        matched[i] = take;
        at_cut -= take;
      }
      for (size_t rank = 0; rank < n && at_cut > 0; ++rank) {
        const uint8_t take = reputation[order[rank]] == cut;
        matched[order[rank]] |= take;
        at_cut -= take;
      }
    }
    // Exploration: lottery over the not-yet-matched workers, uniform or
    // weighted per the observer's controls.
    if (explore_slots > 0) {
      if (!controls.explore_weights.empty()) {
        EQIMPACT_CHECK_EQ(controls.explore_weights.size(), n);
        for (double w : controls.explore_weights) EQIMPACT_CHECK_GE(w, 0.0);
      }
      FillExploreSlots(explore_slots, controls.explore_weights, &match_rng,
                       &matched, &pool, &sums);
    }

    // Outcomes and the rating filter update (only matched workers are
    // rated — the loop's self-selection). The matched workers draw in
    // index order, one uniform each, as one batch.
    size_t num_rated = 0;
    for (size_t i = 0; i < n; ++i) {
      rated[num_rated] = i;
      num_rated += matched[i];
    }
    outcome_rng.FillUniformDouble(draws.data(), num_rated);
    for (size_t r = 0; r < num_rated; ++r) {
      const size_t i = rated[r];
      ++matches[i];
      rating_count[i] += 1.0;
      // Bernoulli(skill): a success adds 1, a failure 0.
      rating_sum[i] += static_cast<double>(draws[r] < result.skill[i]);
    }

    if (observer) {
      const double denominator = static_cast<double>(round + 1);
      for (size_t i = 0; i < n; ++i) {
        running_rate[i] = static_cast<double>(matches[i]) / denominator;
      }
      RoundSnapshot snapshot{round, running_rate, result.skill, matched};
      observer(snapshot, &controls);
    }
  }

  result.match_rate.resize(n);
  result.reputation.resize(n);
  double total_rate = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.match_rate[i] = static_cast<double>(matches[i]) /
                           static_cast<double>(options.rounds);
    result.reputation[i] = rating_sum[i] / rating_count[i];
    total_rate += result.match_rate[i];
  }
  result.mean_match_rate = total_rate / static_cast<double>(n);
  result.match_rate_gini = stats::GiniCoefficient(result.match_rate);
  result.final_exploration = std::clamp(controls.exploration, 0.0, 1.0);
  return result;
}

}  // namespace market
}  // namespace eqimpact
