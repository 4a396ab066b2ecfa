// Unit tests for the rng module: generators, distributions, and the
// normal-distribution special functions.

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "rng/categorical.h"
#include "rng/normal.h"
#include "rng/pcg32.h"
#include "rng/random.h"
#include "rng/splitmix64.h"
#include "stats/running_stats.h"

namespace eqimpact {
namespace {

TEST(SplitMix64Test, IsDeterministic) {
  rng::SplitMix64 a(12345);
  rng::SplitMix64 b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  rng::SplitMix64 a(1);
  rng::SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(SplitMix64Test, KnownVectorFromReferenceImplementation) {
  // Reference values for seed 0 (Steele et al. / Vigna's splitmix64.c).
  rng::SplitMix64 gen(0);
  EXPECT_EQ(gen.Next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(gen.Next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(gen.Next(), 0x06C45D188009454FULL);
}

TEST(Pcg32Test, IsDeterministicPerSeed) {
  rng::Pcg32 a(7);
  rng::Pcg32 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg32Test, LowEntropySeedsGiveDistinctStreams) {
  rng::Pcg32 a(0);
  rng::Pcg32 b(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Pcg32Test, SatisfiesUniformRandomBitGenerator) {
  static_assert(rng::Pcg32::min() == 0);
  static_assert(rng::Pcg32::max() == 0xFFFFFFFFu);
  rng::Pcg32 gen(3);
  EXPECT_GE(gen(), rng::Pcg32::min());
}

TEST(RandomTest, UniformDoubleInUnitInterval) {
  rng::Random random(11);
  for (int i = 0; i < 10000; ++i) {
    double u = random.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomTest, UniformDoubleRangeRespectsBounds) {
  rng::Random random(11);
  for (int i = 0; i < 1000; ++i) {
    double u = random.UniformDouble(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(RandomTest, UniformDoubleMeanIsHalf) {
  rng::Random random(123);
  stats::RunningStats acc;
  for (int i = 0; i < 100000; ++i) acc.Add(random.UniformDouble());
  EXPECT_NEAR(acc.Mean(), 0.5, 0.01);
  EXPECT_NEAR(acc.Variance(), 1.0 / 12.0, 0.01);
}

TEST(RandomTest, UniformIntStaysInRange) {
  rng::Random random(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(random.UniformInt(17), 17u);
  }
}

TEST(RandomTest, UniformIntCoversAllValues) {
  rng::Random random(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(random.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RandomTest, UniformIntIsApproximatelyUniform) {
  rng::Random random(99);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[random.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.1, 0.01);
  }
}

TEST(RandomTest, BernoulliMatchesProbability) {
  rng::Random random(21);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) hits += random.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
}

TEST(RandomTest, BernoulliDegenerateProbabilities) {
  rng::Random random(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(random.Bernoulli(0.0));
    EXPECT_TRUE(random.Bernoulli(1.0));
  }
}

TEST(RandomTest, ExponentialHasCorrectMean) {
  rng::Random random(41);
  stats::RunningStats acc;
  for (int i = 0; i < 100000; ++i) acc.Add(random.Exponential(2.0));
  EXPECT_NEAR(acc.Mean(), 0.5, 0.01);
}

TEST(RandomTest, ParetoRespectsMinimumAndMean) {
  rng::Random random(43);
  stats::RunningStats acc;
  for (int i = 0; i < 200000; ++i) {
    double x = random.Pareto(200.0, 2.5);
    EXPECT_GE(x, 200.0);
    acc.Add(x);
  }
  // Mean of Pareto(xm, alpha) is xm * alpha / (alpha - 1).
  EXPECT_NEAR(acc.Mean(), 200.0 * 2.5 / 1.5, 3.0);
}

TEST(RandomTest, ShuffleIsAPermutation) {
  rng::Random random(51);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  random.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RandomTest, ShuffleActuallyPermutes) {
  rng::Random random(52);
  std::vector<int> values(64);
  for (int i = 0; i < 64; ++i) values[i] = i;
  std::vector<int> shuffled = values;
  random.Shuffle(&shuffled);
  EXPECT_NE(shuffled, values);
}

TEST(DeriveSeedTest, ChildrenAreDistinct) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 1000; ++i) seeds.insert(rng::DeriveSeed(42, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(DeriveSeedTest, DependsOnMaster) {
  EXPECT_NE(rng::DeriveSeed(1, 0), rng::DeriveSeed(2, 0));
}

// --- Standard normal functions -------------------------------------------

TEST(NormalCdfTest, KnownValues) {
  EXPECT_DOUBLE_EQ(rng::StandardNormalCdf(0.0), 0.5);
  EXPECT_NEAR(rng::StandardNormalCdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(rng::StandardNormalCdf(1.959963984540054), 0.975, 1e-12);
  EXPECT_NEAR(rng::StandardNormalCdf(-2.0), 0.022750131948179195, 1e-12);
}

TEST(NormalCdfTest, Symmetry) {
  for (double x : {0.1, 0.5, 1.0, 2.5, 4.0}) {
    EXPECT_NEAR(rng::StandardNormalCdf(x) + rng::StandardNormalCdf(-x), 1.0,
                1e-14);
  }
}

TEST(NormalCdfTest, MonotoneIncreasing) {
  double previous = 0.0;
  for (double x = -6.0; x <= 6.0; x += 0.1) {
    double value = rng::StandardNormalCdf(x);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

TEST(NormalPdfTest, PeakValueAtZero) {
  EXPECT_NEAR(rng::StandardNormalPdf(0.0), 0.3989422804014327, 1e-14);
}

TEST(NormalQuantileTest, InvertsCdf) {
  for (double p = 0.001; p < 1.0; p += 0.017) {
    double x = rng::StandardNormalQuantile(p);
    EXPECT_NEAR(rng::StandardNormalCdf(x), p, 1e-10);
  }
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(rng::StandardNormalQuantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(rng::StandardNormalQuantile(0.975), 1.959963984540054, 1e-9);
}

TEST(NormalQuantileTest, BoundaryValuesAreInfinite) {
  EXPECT_TRUE(std::isinf(rng::StandardNormalQuantile(0.0)));
  EXPECT_TRUE(std::isinf(rng::StandardNormalQuantile(1.0)));
  EXPECT_LT(rng::StandardNormalQuantile(0.0), 0.0);
  EXPECT_GT(rng::StandardNormalQuantile(1.0), 0.0);
}

// --- Categorical -----------------------------------------------------------

TEST(CategoricalTest, NormalisesWeights) {
  rng::Categorical dist({2.0, 6.0});
  EXPECT_NEAR(dist.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(dist.probability(1), 0.75, 1e-12);
}

TEST(CategoricalTest, AliasSamplingMatchesProbabilities) {
  rng::Random random(71);
  rng::Categorical dist({0.1, 0.2, 0.3, 0.4});
  std::vector<int> counts(4, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[dist.Sample(&random)];
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / draws, dist.probability(k),
                0.01);
  }
}

TEST(CategoricalTest, HandlesZeroWeightCategories) {
  rng::Random random(72);
  rng::Categorical dist({0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(dist.Sample(&random), 1u);
  }
}

TEST(CategoricalTest, SingleCategory) {
  rng::Random random(73);
  rng::Categorical dist({5.0});
  EXPECT_EQ(dist.Sample(&random), 0u);
  EXPECT_EQ(dist.size(), 1u);
}

TEST(SampleCategoricalTest, MatchesWeights) {
  rng::Random random(81);
  std::vector<double> weights{1.0, 1.0, 2.0};
  std::vector<int> counts(3, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++counts[rng::SampleCategorical(weights, &random)];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / draws, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / draws, 0.50, 0.01);
}

TEST(SampleCategoricalTest, DegenerateWeightVector) {
  rng::Random random(82);
  EXPECT_EQ(rng::SampleCategorical({0.0, 3.0}, &random), 1u);
}

// --- Parameterized property sweeps ----------------------------------------

class CategoricalSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CategoricalSweep, AliasTableFrequenciesMatchForAnySupportSize) {
  const size_t k = GetParam();
  rng::Random random(1000 + k);
  std::vector<double> weights(k);
  for (size_t i = 0; i < k; ++i) weights[i] = static_cast<double>(i + 1);
  rng::Categorical dist(weights);
  std::vector<int> counts(k, 0);
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) ++counts[dist.Sample(&random)];
  for (size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / draws, dist.probability(i),
                0.015)
        << "support size " << k << " category " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(SupportSizes, CategoricalSweep,
                         ::testing::Values(1, 2, 3, 5, 9, 16, 33));

class QuantileRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(QuantileRoundTrip, CdfOfQuantileIsIdentity) {
  double p = GetParam();
  EXPECT_NEAR(rng::StandardNormalCdf(rng::StandardNormalQuantile(p)), p,
              1e-10);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, QuantileRoundTrip,
                         ::testing::Values(1e-10, 1e-6, 0.01, 0.02425, 0.1,
                                           0.25, 0.5, 0.75, 0.9, 0.97575,
                                           0.99, 1.0 - 1e-6, 1.0 - 1e-10));

}  // namespace
}  // namespace eqimpact
