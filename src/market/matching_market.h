#ifndef EQIMPACT_MARKET_MATCHING_MARKET_H_
#define EQIMPACT_MARKET_MATCHING_MARKET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace eqimpact {
namespace market {

/// How the platform allocates its per-round capacity.
enum class MatchingRule {
  /// Pure exploitation: the highest-reputation workers get every job.
  /// The closed loop then locks in early luck: unrated or unlucky
  /// workers never work again, their time-average match rate depends on
  /// the initial randomness — equal impact fails even among workers of
  /// identical skill.
  kTopScore,
  /// Epsilon-greedy: a fraction of the capacity is allocated uniformly
  /// at random (exploration), the rest by reputation. The randomised
  /// component keeps the loop uniquely ergodic, restoring equal impact
  /// within skill classes — the market analogue of the stable randomized
  /// broadcast in the ensemble-control experiments.
  kEpsilonGreedy,
  /// Pure lottery: capacity allocated uniformly at random. Maximal
  /// equality, no use of reputation at all.
  kUniformRandom,
};

/// Sampling range of heterogeneous worker skills — shared with
/// consumers that partition workers into skill classes (e.g. the
/// scenario API's group structure), so the class boundaries can never
/// drift from the sampled range.
inline constexpr double kHeterogeneousSkillLo = 0.3;
inline constexpr double kHeterogeneousSkillHi = 0.9;

/// Configuration of the matching-market closed loop — the paper's
/// "matches in a two-sided market" instantiation of Figure 1: the AI
/// system is the reputation ranker, the output pi(k) is the matching,
/// the user responses are the match outcomes, and the filter is the
/// rating average feeding the next round's ranking.
struct MatchingMarketOptions {
  size_t num_workers = 200;
  /// Jobs per round as a fraction of the worker pool.
  double capacity_fraction = 0.5;
  /// Exploration fraction for kEpsilonGreedy (the starting value; a
  /// RoundObserver may steer it between rounds).
  double exploration = 0.1;
  /// Bayesian prior pseudo-ratings for a cold-start worker. Must be
  /// > 0: without a prior, a worker no one has rated would have
  /// reputation 0/0 = NaN, which no ranking can order.
  double prior_weight = 1.0;
  double prior_mean = 0.5;
  /// Number of rounds to simulate.
  size_t rounds = 500;
  /// All workers share this success probability ("skill") unless
  /// heterogeneous_skill is set (skills then sampled uniformly from
  /// [kHeterogeneousSkillLo, kHeterogeneousSkillHi)); with equal skill,
  /// any long-run dispersion in match rates is produced by the loop
  /// itself.
  double base_skill = 0.6;
  bool heterogeneous_skill = false;
  /// Master seed. Sub-streams follow the library-wide
  /// runtime::SeedSequence DeriveSeed convention: stream 0 samples the
  /// skills, and every round r derives its own child namespace
  /// Child(1).Child(r) with independent matching (Seed(0)) and outcome
  /// (Seed(1)) streams — so the randomness a round consumes depends only
  /// on (seed, r), never on how much earlier rounds drew, exactly like
  /// the credit engine's per-(year, chunk) sub-streams.
  uint64_t seed = 0;
};

/// Cross-section of the market after one round's outcomes, handed to a
/// RoundObserver. References stay valid only for the duration of the
/// callback.
struct RoundSnapshot {
  /// Round index r (0-based).
  size_t round = 0;
  /// Time-average match rate of every worker through this round:
  /// matches so far / (round + 1) — the equal-impact quantity r_i as a
  /// running average.
  const std::vector<double>& running_match_rate;
  /// Hidden skill of every worker (constant across rounds).
  const std::vector<double>& skill;
  /// This round's matching (1 = matched).
  const std::vector<uint8_t>& matched;
};

/// Regulator-facing knobs a RoundObserver may steer for the *next*
/// round. Each callback receives the current values; mutations persist
/// until changed again (the observer is the paper's intervention seam —
/// e.g. an equalizer raising exploration while inequality persists).
struct RoundControls {
  /// Exploration fraction applied from the next round on
  /// (kEpsilonGreedy only). Clamped to [0, 1] by the loop.
  double exploration = 0.0;
  /// Per-worker weights of the exploration lottery; empty = uniform.
  /// When set (size num_workers, all weights >= 0), exploration slots
  /// are drawn without replacement from the unmatched pool with
  /// probability proportional to weight — the hook through which a
  /// per-class equalizer boosts under-served classes.
  std::vector<double> explore_weights;
};

/// Streaming consumer of per-round cross-sections plus the intervention
/// seam. Invoked once per round, after the round's outcomes and filter
/// update, from the calling thread.
using RoundObserver =
    std::function<void(const RoundSnapshot&, RoundControls*)>;

/// Result of one market simulation.
struct MatchingMarketResult {
  /// Time-average match rate per worker (the equal-impact quantity r_i).
  std::vector<double> match_rate;
  /// Final reputation per worker.
  std::vector<double> reputation;
  /// Hidden skill per worker.
  std::vector<double> skill;
  /// Gini coefficient of the match rates (0 = equal access).
  double match_rate_gini = 0.0;
  /// Mean match rate (= capacity fraction up to rounding).
  double mean_match_rate = 0.0;
  /// Exploration fraction in force after the last round (differs from
  /// MatchingMarketOptions::exploration only under an observer that
  /// steered it).
  double final_exploration = 0.0;
};

/// Runs the matching-market closed loop. Deterministic in options.seed.
MatchingMarketResult RunMatchingMarket(MatchingRule rule,
                                       const MatchingMarketOptions& options);

/// As above, additionally invoking `observer` once per round with that
/// round's cross-section and control block. A null observer is allowed
/// and equivalent to the overload above.
MatchingMarketResult RunMatchingMarket(MatchingRule rule,
                                       const MatchingMarketOptions& options,
                                       const RoundObserver& observer);

}  // namespace market
}  // namespace eqimpact

#endif  // EQIMPACT_MARKET_MATCHING_MARKET_H_
