// Unit tests for the matching-market closed loop (the paper's two-sided
// market instantiation), the Gini statistic, the drift monitor, and the
// impact-equalizer intervention.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "base/fnv1a.h"
#include "core/drift_monitor.h"
#include "core/impact_equalizer.h"
#include "market/matching_market.h"
#include "rng/random.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace {

using market::MatchingMarketOptions;
using market::MatchingMarketResult;
using market::MatchingRule;
using market::RunMatchingMarket;

// --- Gini ---------------------------------------------------------------------

TEST(GiniTest, EqualValuesGiveZero) {
  EXPECT_NEAR(stats::GiniCoefficient({2.0, 2.0, 2.0, 2.0}), 0.0, 1e-12);
}

TEST(GiniTest, SingleWinnerApproachesOne) {
  std::vector<double> values(100, 0.0);
  values[0] = 1.0;
  EXPECT_NEAR(stats::GiniCoefficient(values), 0.99, 1e-9);
}

TEST(GiniTest, KnownSmallSample) {
  // {0, 1}: Gini = 1/2.
  EXPECT_NEAR(stats::GiniCoefficient({0.0, 1.0}), 0.5, 1e-12);
}

TEST(GiniTest, ScaleInvariance) {
  std::vector<double> values{1.0, 2.0, 5.0, 9.0};
  double base = stats::GiniCoefficient(values);
  for (double& v : values) v *= 7.0;
  EXPECT_NEAR(stats::GiniCoefficient(values), base, 1e-12);
}

TEST(GiniTest, AllZerosGiveZero) {
  EXPECT_DOUBLE_EQ(stats::GiniCoefficient({0.0, 0.0}), 0.0);
}

/// stats::GiniCoefficient as it was before its bucketed sort: std::sort,
/// then the sums over the sorted values (the bitwise oracle).
double StdSortGini(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  double total = 0.0;
  double weighted = 0.0;
  const double n = static_cast<double>(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    total += values[i];
    weighted += (static_cast<double>(i) + 1.0) * values[i];
  }
  if (total <= 0.0) return 0.0;
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

TEST(GiniTest, BucketedSortMatchesStdSortBitwise) {
  rng::Random random(31);
  const auto sample = [&random](size_t n, double (*draw)(rng::Random*)) {
    std::vector<double> values(n);
    for (double& value : values) value = draw(&random);
    return values;
  };
  std::vector<std::vector<double>> samples = {
      // A market's running rates: 1,000 values, ~300 of them distinct.
      sample(1000,
             [](rng::Random* r) {
               return static_cast<double>(r->UniformInt(301)) / 300.0;
             }),
      // Ties: four distinct values, and one value throughout.
      sample(500,
             [](rng::Random* r) {
               return static_cast<double>(r->UniformInt(4));
             }),
      std::vector<double>(200, 0.3),
      // Zeros of both signs among positives, and alone.
      sample(300,
             [](rng::Random* r) {
               const uint64_t k = r->UniformInt(3);
               return k == 0 ? -0.0 : k == 1 ? 0.0 : r->UniformDouble();
             }),
      sample(100,
             [](rng::Random* r) { return r->Bernoulli(0.5) ? -0.0 : 0.0; }),
      // Values a few ulps apart: a narrow range, a large scale.
      sample(400,
             [](rng::Random* r) {
               return 1.0 + static_cast<double>(r->UniformInt(50)) * 0x1p-52;
             }),
      // Near DBL_MAX (the sums overflow, the buckets do not), a scale at
      // which the sums stay finite, and subnormals (whose bucket scale
      // overflows).
      sample(300,
             [](rng::Random* r) {
               return std::numeric_limits<double>::max() *
                      r->UniformDouble(0.5, 1.0);
             }),
      sample(300,
             [](rng::Random* r) {
               return std::numeric_limits<double>::max() * 1e-5 *
                      r->UniformDouble(0.5, 1.0);
             }),
      sample(300,
             [](rng::Random* r) {
               return 5e-324 * static_cast<double>(r->UniformInt(1000));
             }),
      // Below the bucket threshold, at it, and a single value.
      sample(63, [](rng::Random* r) { return r->UniformDouble(); }),
      sample(64, [](rng::Random* r) { return r->UniformDouble(); }),
      {0.7},
  };
  const auto uniform = [](rng::Random* r) { return r->UniformDouble(); };
  // One far outlier among uniform values, which crowds them into the
  // first bucket.
  samples.push_back(sample(1000, uniform));
  samples.back()[500] = 1e12;
  // +inf, which takes std::sort.
  samples.push_back(sample(200, uniform));
  samples.back()[7] = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < samples.size(); ++s) {
    const double bucketed = stats::GiniCoefficient(samples[s]);
    const double oracle = StdSortGini(samples[s]);
    uint64_t bucketed_bits;
    uint64_t oracle_bits;
    std::memcpy(&bucketed_bits, &bucketed, sizeof(bucketed));
    std::memcpy(&oracle_bits, &oracle, sizeof(oracle));
    EXPECT_EQ(bucketed_bits, oracle_bits)
        << "sample " << s << ": " << bucketed << " vs " << oracle;
  }
}

// --- Matching market -----------------------------------------------------------

MatchingMarketOptions SmallMarket(uint64_t seed) {
  MatchingMarketOptions options;
  options.num_workers = 100;
  options.capacity_fraction = 0.5;
  options.rounds = 600;
  options.seed = seed;
  return options;
}

TEST(MatchingMarketTest, CapacityIsRespected) {
  MatchingMarketResult result =
      RunMatchingMarket(MatchingRule::kUniformRandom, SmallMarket(1));
  EXPECT_NEAR(result.mean_match_rate, 0.5, 1e-9);
  EXPECT_EQ(result.match_rate.size(), 100u);
}

TEST(MatchingMarketTest, LotteryGivesEqualImpact) {
  MatchingMarketResult result =
      RunMatchingMarket(MatchingRule::kUniformRandom, SmallMarket(2));
  // Every equally skilled worker gets ~the capacity fraction.
  EXPECT_LT(result.match_rate_gini, 0.05);
  EXPECT_LT(stats::CoincidenceGap(result.match_rate), 0.2);
}

TEST(MatchingMarketTest, PureExploitationLocksIn) {
  // Identical skills, yet top-score matching concentrates access: the
  // loop's own feedback produces the inequality.
  MatchingMarketResult result =
      RunMatchingMarket(MatchingRule::kTopScore, SmallMarket(3));
  EXPECT_GT(result.match_rate_gini, 0.3);
  // Some workers work almost always, some almost never.
  EXPECT_GT(stats::CoincidenceGap(result.match_rate), 0.9);
}

TEST(MatchingMarketTest, ExplorationRestoresEquality) {
  MatchingMarketOptions options = SmallMarket(4);
  options.exploration = 0.3;
  MatchingMarketResult explored =
      RunMatchingMarket(MatchingRule::kEpsilonGreedy, options);
  MatchingMarketResult exploited =
      RunMatchingMarket(MatchingRule::kTopScore, SmallMarket(4));
  EXPECT_LT(explored.match_rate_gini, exploited.match_rate_gini);
}

TEST(MatchingMarketTest, MoreExplorationMoreEquality) {
  double previous_gini = 1.0;
  for (double exploration : {0.05, 0.2, 0.5, 1.0}) {
    MatchingMarketOptions options = SmallMarket(5);
    options.exploration = exploration;
    MatchingMarketResult result =
        RunMatchingMarket(MatchingRule::kEpsilonGreedy, options);
    EXPECT_LE(result.match_rate_gini, previous_gini + 0.05)
        << "exploration " << exploration;
    previous_gini = result.match_rate_gini;
  }
}

TEST(MatchingMarketTest, DeterministicInSeed) {
  MatchingMarketResult a =
      RunMatchingMarket(MatchingRule::kTopScore, SmallMarket(6));
  MatchingMarketResult b =
      RunMatchingMarket(MatchingRule::kTopScore, SmallMarket(6));
  EXPECT_EQ(a.match_rate, b.match_rate);
}

TEST(MatchingMarketTest, InitialConditionDependenceUnderExploitation) {
  // Different seeds = different early luck. With identical skills the
  // *set* of locked-in winners changes with the seed: the per-worker
  // limits depend on initial conditions (ergodicity lost), even though
  // the aggregate (mean match rate) is pinned by capacity.
  MatchingMarketResult a =
      RunMatchingMarket(MatchingRule::kTopScore, SmallMarket(7));
  MatchingMarketResult b =
      RunMatchingMarket(MatchingRule::kTopScore, SmallMarket(8));
  EXPECT_NEAR(a.mean_match_rate, b.mean_match_rate, 1e-9);
  double max_worker_gap = 0.0;
  for (size_t i = 0; i < a.match_rate.size(); ++i) {
    max_worker_gap = std::max(max_worker_gap,
                              std::fabs(a.match_rate[i] - b.match_rate[i]));
  }
  EXPECT_GT(max_worker_gap, 0.5);
}

TEST(MatchingMarketTest, HeterogeneousSkillRewardsSkillUnderExploitation) {
  MatchingMarketOptions options = SmallMarket(9);
  options.heterogeneous_skill = true;
  options.exploration = 0.2;
  MatchingMarketResult result =
      RunMatchingMarket(MatchingRule::kEpsilonGreedy, options);
  // Correlation between skill and match rate should be positive.
  double mean_skill = 0.0, mean_rate = 0.0;
  for (size_t i = 0; i < result.skill.size(); ++i) {
    mean_skill += result.skill[i];
    mean_rate += result.match_rate[i];
  }
  mean_skill /= static_cast<double>(result.skill.size());
  mean_rate /= static_cast<double>(result.skill.size());
  double covariance = 0.0;
  for (size_t i = 0; i < result.skill.size(); ++i) {
    covariance += (result.skill[i] - mean_skill) *
                  (result.match_rate[i] - mean_rate);
  }
  EXPECT_GT(covariance, 0.0);
}

// --- Round observer + regulator controls -----------------------------------------

TEST(MatchingMarketTest, ObserverStreamsEveryRound) {
  MatchingMarketOptions options = SmallMarket(20);
  options.rounds = 50;
  size_t calls = 0;
  MatchingMarketResult result = RunMatchingMarket(
      MatchingRule::kUniformRandom, options,
      [&calls, &options](const market::RoundSnapshot& snapshot,
                         market::RoundControls*) {
        EXPECT_EQ(snapshot.round, calls);
        EXPECT_EQ(snapshot.running_match_rate.size(), options.num_workers);
        EXPECT_EQ(snapshot.matched.size(), options.num_workers);
        // Running rates are averages of the matchings so far.
        for (double rate : snapshot.running_match_rate) {
          EXPECT_GE(rate, 0.0);
          EXPECT_LE(rate, 1.0);
        }
        ++calls;
      });
  EXPECT_EQ(calls, 50u);
  // The final snapshot's running rates equal the result's match rates.
  EXPECT_EQ(result.match_rate.size(), options.num_workers);
}

TEST(MatchingMarketTest, ObserverDoesNotPerturbTheSimulation) {
  MatchingMarketOptions options = SmallMarket(21);
  MatchingMarketResult plain =
      RunMatchingMarket(MatchingRule::kEpsilonGreedy, options);
  MatchingMarketResult observed = RunMatchingMarket(
      MatchingRule::kEpsilonGreedy, options,
      [](const market::RoundSnapshot&, market::RoundControls*) {});
  EXPECT_EQ(plain.match_rate, observed.match_rate);
  EXPECT_EQ(plain.reputation, observed.reputation);
}

TEST(MatchingMarketTest, ObserverSteersExploration) {
  // A regulator that turns the lottery fully on defeats the lock-in.
  MatchingMarketOptions options = SmallMarket(22);
  options.exploration = 0.0;
  MatchingMarketResult locked =
      RunMatchingMarket(MatchingRule::kEpsilonGreedy, options);
  MatchingMarketResult steered = RunMatchingMarket(
      MatchingRule::kEpsilonGreedy, options,
      [](const market::RoundSnapshot&, market::RoundControls* controls) {
        controls->exploration = 1.0;
      });
  EXPECT_GT(locked.match_rate_gini, 0.3);
  EXPECT_LT(steered.match_rate_gini, 0.1);
  EXPECT_DOUBLE_EQ(steered.final_exploration, 1.0);
  EXPECT_DOUBLE_EQ(locked.final_exploration, 0.0);
}

TEST(MatchingMarketTest, ExploreWeightsSteerTheLottery) {
  // Zero weight = never drawn in the lottery: under a pure lottery
  // with half the workers weighted out, only the other half works.
  MatchingMarketOptions options = SmallMarket(23);
  options.rounds = 100;
  const size_t n = options.num_workers;
  MatchingMarketResult result = RunMatchingMarket(
      MatchingRule::kUniformRandom, options,
      [n](const market::RoundSnapshot&, market::RoundControls* controls) {
        if (!controls->explore_weights.empty()) return;
        controls->explore_weights.assign(n, 0.0);
        for (size_t i = n / 2; i < n; ++i) {
          controls->explore_weights[i] = 1.0;
        }
      });
  // Round 0 ran unweighted; from round 1 on only the second half can
  // match, so the first half's rates are bounded by 1/rounds.
  for (size_t i = 0; i < n / 2; ++i) {
    EXPECT_LE(result.match_rate[i], 1.0 / 100.0 + 1e-12);
  }
  double second_half = 0.0;
  for (size_t i = n / 2; i < n; ++i) second_half += result.match_rate[i];
  EXPECT_NEAR(second_half / static_cast<double>(n / 2), 1.0, 0.02);
}

TEST(MatchingMarketTest, WeightedLotterySurvivesExhaustedWeightMass) {
  // More exploration slots than positive-weight workers: after the
  // weighted mass is drawn (subtraction can leave a tiny positive
  // floating-point residue), the remaining slots fill uniformly — the
  // capacity is still honoured every round, with no out-of-bounds draw.
  MatchingMarketOptions options;
  options.num_workers = 10;
  options.capacity_fraction = 0.5;  // 5 slots per round.
  options.rounds = 50;
  options.seed = 25;
  MatchingMarketResult result = RunMatchingMarket(
      MatchingRule::kUniformRandom, options,
      [](const market::RoundSnapshot& snapshot,
         market::RoundControls* controls) {
        if (controls->explore_weights.empty()) {
          // 3 positive-weight workers for 5 slots.
          controls->explore_weights.assign(10, 0.0);
          controls->explore_weights[0] = 0.1;
          controls->explore_weights[1] = 0.2;
          controls->explore_weights[2] = 0.3;
        }
        size_t matched = 0;
        for (uint8_t m : snapshot.matched) matched += m;
        EXPECT_EQ(matched, 5u);
      });
  // The positive-weight workers match every round from round 1 on.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(result.match_rate[i], 49.0 / 50.0 - 1e-12);
  }
  EXPECT_NEAR(result.mean_match_rate, 0.5, 1e-12);
}

TEST(MatchingMarketTest, AdversarialLotteryWeightsArePinned) {
  // An observer sets new exploration weights every round, each case aimed
  // at one edge of the weighted lottery's arithmetic; the match rates and
  // reputations of both lottery rules are pinned bit for bit.
  struct Case {
    const char* name;
    double (*weight)(size_t worker, size_t round);
    const char* digest;
  };
  const Case kCases[] = {
      // Exact zeros and -0.0 are never drawn while positive mass remains.
      {"zeros",
       [](size_t i, size_t r) {
         const size_t k = (i + r) % 4;
         return k == 0 ? 0.0 : k == 1 ? -0.0 : 0.25 + 0.01 * (i % 7);
       },
       "ea0f5ae6b5a6d79c"},
      // Ties: a swap-remove that moves in an equal weight.
      {"ties", [](size_t i, size_t r) { return (i + r) % 3 == 0 ? 3.0 : 1.0; },
       "8813d3dbbcab010d"},
      // 1e-300 beside 1.0: the running sum absorbs the tiny weights.
      {"absorbed",
       [](size_t i, size_t r) { return (i + r) % 2 == 0 ? 1e-300 : 1.0; },
       "7d44d3ca0dc36b2f"},
      // All mass on one worker, who may already hold an exploit slot.
      {"one worker",
       [](size_t i, size_t r) { return i == (3 * r) % 40 ? 1.0 : 0.0; },
       "f4a26caf86ea47a8"},
      // Three positive weights for up to 20 slots: the mass runs out
      // mid-draw, leaving a rounding residue.
      {"exhausted",
       [](size_t i, size_t r) {
         const size_t k = (i + 40 - r % 40) % 40;
         return k == 0 ? 0.1 : k == 7 ? 0.2 : k == 19 ? 0.3 : 0.0;
       },
       "6e750fc7c4856d35"},
      // 1.5e-16 beside 1.0 rounds the running total up, so once the 1.0
      // is drawn the total exceeds what is left: about a third of the
      // draws land past the last sum and take the last positive entry.
      {"residue",
       [](size_t i, size_t r) { return i == r % 5 ? 1.0 : 1.5e-16; },
       "b31e441d8fd26878"},
      // Weights near DBL_MAX / 32: the pool's total stays finite, but u
      // times the number of kept sums overflows to infinity.
      {"huge",
       [](size_t i, size_t r) {
         return 1e306 * static_cast<double>(size_t{1} << ((i + r) % 3));
       },
       "004c67167f97fb61"},
  };
  MatchingMarketOptions options;
  options.num_workers = 40;
  options.capacity_fraction = 0.5;  // 20 slots per round.
  options.exploration = 0.6;        // 12 of them by lottery.
  options.rounds = 60;
  options.seed = 26;
  for (const Case& c : kCases) {
    base::Fnv1a digest;
    for (MatchingRule rule :
         {MatchingRule::kEpsilonGreedy, MatchingRule::kUniformRandom}) {
      const MatchingMarketResult result = RunMatchingMarket(
          rule, options,
          [&c](const market::RoundSnapshot& snapshot,
               market::RoundControls* controls) {
            size_t matched = 0;
            for (uint8_t m : snapshot.matched) matched += m;
            EXPECT_EQ(matched, 20u) << c.name << " round " << snapshot.round;
            controls->explore_weights.resize(snapshot.matched.size());
            for (size_t i = 0; i < snapshot.matched.size(); ++i) {
              controls->explore_weights[i] = c.weight(i, snapshot.round + 1);
            }
          });
      digest.MixSeries(result.match_rate);
      digest.MixSeries(result.reputation);
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest.hash());
    EXPECT_STREQ(hex, c.digest) << c.name;
  }
}

TEST(MatchingMarketTest, RoundsConsumeIndependentSubStreams) {
  // Doubling the round count must not change the skills (stream 0) —
  // and the library-wide convention gives every round its own child
  // namespace, so this holds by construction.
  MatchingMarketOptions short_run = SmallMarket(24);
  short_run.heterogeneous_skill = true;
  MatchingMarketOptions long_run = short_run;
  long_run.rounds = short_run.rounds * 2;
  MatchingMarketResult a =
      RunMatchingMarket(MatchingRule::kEpsilonGreedy, short_run);
  MatchingMarketResult b =
      RunMatchingMarket(MatchingRule::kEpsilonGreedy, long_run);
  EXPECT_EQ(a.skill, b.skill);
}

// --- Drift monitor ---------------------------------------------------------------

TEST(DriftMonitorTest, FirstIngestGivesNoMeasurement) {
  core::DriftMonitor monitor(0.1);
  EXPECT_FALSE(monitor.Ingest({1.0, 2.0, 3.0}).has_value());
  EXPECT_EQ(monitor.num_steps(), 1u);
}

TEST(DriftMonitorTest, StationaryStreamRaisesNoAlert) {
  core::DriftMonitor monitor(0.2);
  rng::Random random(11);
  for (int step = 0; step < 10; ++step) {
    std::vector<double> sample;
    for (int i = 0; i < 500; ++i) sample.push_back(random.UniformDouble());
    monitor.Ingest(std::move(sample));
  }
  EXPECT_FALSE(monitor.AnyAlert());
  EXPECT_LT(monitor.MaxDriftFromReference(), 0.2);
}

TEST(DriftMonitorTest, ShiftedStreamIsDetected) {
  core::DriftMonitor monitor(0.2);
  rng::Random random(12);
  std::vector<double> base;
  for (int i = 0; i < 500; ++i) base.push_back(random.UniformDouble());
  monitor.Ingest(base);
  std::vector<double> shifted;
  for (int i = 0; i < 500; ++i) shifted.push_back(random.UniformDouble() + 2.0);
  auto measurement = monitor.Ingest(std::move(shifted));
  ASSERT_TRUE(measurement.has_value());
  EXPECT_TRUE(measurement->drift_alert);
  EXPECT_GT(measurement->ks_to_previous, 0.5);
  EXPECT_TRUE(monitor.AnyAlert());
}

TEST(DriftMonitorTest, GradualDriftAccumulatesAgainstReference) {
  // Small per-step shifts that never trip the consecutive alert still
  // accumulate against the reference — the slow feedback-loop drift the
  // closed-loop view makes visible.
  core::DriftMonitor monitor(0.5);
  rng::Random random(13);
  for (int step = 0; step < 12; ++step) {
    std::vector<double> sample;
    for (int i = 0; i < 800; ++i) {
      sample.push_back(random.UniformDouble() + 0.25 * step);
    }
    monitor.Ingest(std::move(sample));
  }
  EXPECT_FALSE(monitor.AnyAlert());  // No single step jumped.
  EXPECT_GT(monitor.MaxDriftFromReference(), 0.8);
}

// --- Impact equalizer -----------------------------------------------------------

TEST(ImpactEqualizerTest, StartsNeutral) {
  core::ImpactEqualizer equalizer(3, 0.5, -1.0, 1.0);
  for (double offset : equalizer.offsets()) EXPECT_DOUBLE_EQ(offset, 0.0);
  EXPECT_FALSE(equalizer.Converged(0.1));
}

TEST(ImpactEqualizerTest, RaisesOffsetsForHighImpactClasses) {
  core::ImpactEqualizer equalizer(2, 0.5, -1.0, 1.0);
  equalizer.Observe({0.8, 0.2});  // Class 0 above average.
  EXPECT_GT(equalizer.offsets()[0], 0.0);
  EXPECT_LT(equalizer.offsets()[1], 0.0);
}

TEST(ImpactEqualizerTest, OffsetsAreClipped) {
  core::ImpactEqualizer equalizer(2, 10.0, -0.5, 0.5);
  equalizer.Observe({1.0, 0.0});
  EXPECT_DOUBLE_EQ(equalizer.offsets()[0], 0.5);
  EXPECT_DOUBLE_EQ(equalizer.offsets()[1], -0.5);
}

TEST(ImpactEqualizerTest, ClosesGapOnMonotoneResponse) {
  // Synthetic monotone plant: class impact m_c = base_c - offset_c.
  core::ImpactEqualizer equalizer(3, 0.4, -2.0, 2.0);
  std::vector<double> base{0.9, 0.5, 0.2};
  double gap = 1.0;
  for (int iteration = 0; iteration < 100; ++iteration) {
    std::vector<double> impacts(3);
    for (size_t c = 0; c < 3; ++c) {
      impacts[c] = base[c] - equalizer.offsets()[c];
    }
    gap = equalizer.Observe(impacts);
  }
  EXPECT_LT(gap, 0.01);
  EXPECT_TRUE(equalizer.Converged(0.01));
  EXPECT_EQ(equalizer.steps(), 100u);
}

TEST(ImpactEqualizerTest, EqualImpactsLeaveOffsetsUnchanged) {
  core::ImpactEqualizer equalizer(2, 0.5, -1.0, 1.0);
  equalizer.Observe({0.4, 0.4});
  EXPECT_DOUBLE_EQ(equalizer.offsets()[0], 0.0);
  EXPECT_DOUBLE_EQ(equalizer.offsets()[1], 0.0);
  EXPECT_TRUE(equalizer.Converged(1e-9));
}

TEST(ImpactEqualizerTest, SweepableInterventionSpecBuildsEqualizers) {
  core::EqualizerInterventionOptions spec;
  EXPECT_FALSE(spec.enabled());  // strength 0 = intervention off.
  spec.strength = 0.5;
  spec.max_offset = 0.8;
  ASSERT_TRUE(spec.enabled());

  // Adverse impact (the default): the high-impact class gets the larger
  // offset (convention: a larger offset reduces impact).
  core::ImpactEqualizer adverse = core::MakeEqualizer(2, spec);
  adverse.Observe({0.9, 0.1});
  EXPECT_GT(adverse.offsets()[0], 0.0);
  EXPECT_LT(adverse.offsets()[1], 0.0);

  // Beneficial impact (match rates): the sign flips, so the
  // under-served class gets the larger offset (e.g. lottery boost).
  spec.beneficial_impact = true;
  core::ImpactEqualizer beneficial = core::MakeEqualizer(2, spec);
  beneficial.Observe({0.9, 0.1});
  EXPECT_LT(beneficial.offsets()[0], 0.0);
  EXPECT_GT(beneficial.offsets()[1], 0.0);
}

TEST(ImpactEqualizerTest, EqualizesTheMatchingMarket) {
  // Use the equalizer to tune per-run exploration until the market's
  // match-rate inequality (impact gap across the worker deciles) falls.
  // One-dimensional control: treat "gini" as the gap and exploration as
  // a single offset steered upward while inequality persists.
  double exploration = 0.05;
  double gini = 1.0;
  for (int iteration = 0; iteration < 12 && gini > 0.1; ++iteration) {
    MatchingMarketOptions options = SmallMarket(100 + iteration);
    options.exploration = exploration;
    gini = RunMatchingMarket(MatchingRule::kEpsilonGreedy, options)
               .match_rate_gini;
    exploration = std::min(1.0, exploration + 0.1 * gini);
  }
  EXPECT_LT(gini, 0.25);
}

}  // namespace
}  // namespace eqimpact
