// Unit tests for the stats module: streaming statistics, time-series
// diagnostics, histograms and cross-trial aggregation.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "base/serial.h"
#include "base/simd_scalar.h"
#include "rng/random.h"
#include "stats/adr_accumulator.h"
#include "stats/aggregate.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace {

TEST(RunningStatsTest, EmptyAccumulator) {
  stats::RunningStats acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.Variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  stats::RunningStats acc;
  acc.Add(4.0);
  EXPECT_EQ(acc.count(), 1);
  EXPECT_DOUBLE_EQ(acc.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.Min(), 4.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 4.0);
}

TEST(RunningStatsTest, KnownMoments) {
  stats::RunningStats acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_DOUBLE_EQ(acc.Mean(), 5.0);
  EXPECT_NEAR(acc.Variance(), 32.0 / 7.0, 1e-12);  // Unbiased.
  EXPECT_DOUBLE_EQ(acc.Min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesPooledComputation) {
  stats::RunningStats left, right, pooled;
  for (int i = 0; i < 50; ++i) {
    double x = 0.1 * i * i - 2.0 * i;
    (i % 2 == 0 ? left : right).Add(x);
    pooled.Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), pooled.count());
  EXPECT_NEAR(left.Mean(), pooled.Mean(), 1e-10);
  EXPECT_NEAR(left.Variance(), pooled.Variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.Min(), pooled.Min());
  EXPECT_DOUBLE_EQ(left.Max(), pooled.Max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  stats::RunningStats filled, empty;
  filled.Add(1.0);
  filled.Add(3.0);
  stats::RunningStats copy = filled;
  copy.Merge(empty);
  EXPECT_DOUBLE_EQ(copy.Mean(), 2.0);
  empty.Merge(filled);
  EXPECT_DOUBLE_EQ(empty.Mean(), 2.0);
}

TEST(CesaroTest, ConstantSeriesIsItsOwnAverage) {
  std::vector<double> averages = stats::CesaroAverages({2.0, 2.0, 2.0});
  for (double a : averages) EXPECT_DOUBLE_EQ(a, 2.0);
}

TEST(CesaroTest, KnownPrefixAverages) {
  std::vector<double> averages = stats::CesaroAverages({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(averages[0], 1.0);
  EXPECT_DOUBLE_EQ(averages[1], 1.5);
  EXPECT_DOUBLE_EQ(averages[2], 2.0);
  EXPECT_DOUBLE_EQ(averages[3], 2.5);
}

TEST(CesaroTest, AlternatingSeriesConvergesToMidpoint) {
  std::vector<double> series;
  for (int i = 0; i < 1000; ++i) series.push_back(i % 2 == 0 ? 0.0 : 1.0);
  std::vector<double> averages = stats::CesaroAverages(series);
  EXPECT_NEAR(averages.back(), 0.5, 1e-3);
}

TEST(HasSettledTest, FlatTailSettles) {
  std::vector<double> series{5.0, 3.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_TRUE(stats::HasSettled(series, 4, 1e-9));
}

TEST(HasSettledTest, MovingTailDoesNot) {
  std::vector<double> series{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  EXPECT_FALSE(stats::HasSettled(series, 4, 0.5));
}

TEST(HasSettledTest, ShortSeriesNeverSettles) {
  EXPECT_FALSE(stats::HasSettled({1.0, 1.0}, 3, 1.0));
}

TEST(CoincidenceGapTest, KnownGaps) {
  EXPECT_DOUBLE_EQ(stats::CoincidenceGap({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::CoincidenceGap({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(stats::CoincidenceGap({1.0, 4.0, 2.0}), 3.0);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> values{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::Quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(stats::Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::Quantile(values, 1.0), 5.0);
}

TEST(QuantileTest, InterpolatesBetweenOrderStatistics) {
  std::vector<double> values{0.0, 10.0};
  EXPECT_DOUBLE_EQ(stats::Quantile(values, 0.25), 2.5);
}

TEST(QuantileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(stats::Quantile({7.0}, 0.9), 7.0);
}

TEST(KsTest, IdenticalSamplesHaveZeroDistance) {
  std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::KsStatistic(a, a), 0.0);
}

TEST(KsTest, DisjointSamplesHaveDistanceOne) {
  EXPECT_DOUBLE_EQ(stats::KsStatistic({1.0, 2.0}, {10.0, 11.0}), 1.0);
}

TEST(KsTest, KnownPartialOverlap) {
  // F_a jumps at 1, 2; F_b jumps at 2, 3. Max gap is 0.5 just before 2.
  EXPECT_NEAR(stats::KsStatistic({1.0, 2.0}, {2.0, 3.0}), 0.5, 1e-12);
}

TEST(HistogramTest, BinAssignment) {
  stats::Histogram h(0.0, 1.0, 4);
  h.Add(0.1);   // Bin 0.
  h.Add(0.30);  // Bin 1.
  h.Add(0.99);  // Bin 3.
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(1), 1);
  EXPECT_EQ(h.count(2), 0);
  EXPECT_EQ(h.count(3), 1);
  EXPECT_EQ(h.total_count(), 3);
}

TEST(HistogramTest, ClampsOutOfRangeValues) {
  stats::Histogram h(0.0, 1.0, 2);
  h.Add(-5.0);
  h.Add(7.0);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(1), 1);
}

TEST(HistogramTest, UpperBoundGoesToLastBin) {
  stats::Histogram h(0.0, 1.0, 2);
  h.Add(1.0);
  EXPECT_EQ(h.count(1), 1);
}

TEST(HistogramTest, Fractions) {
  stats::Histogram h(0.0, 2.0, 2);
  h.AddAll({0.5, 0.6, 1.5, 1.6});
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(h.Fraction(1), 0.5);
}

TEST(AggregateTest, EnvelopeOfIdenticalSeriesHasZeroStd) {
  std::vector<std::vector<double>> series{{1.0, 2.0}, {1.0, 2.0}};
  stats::SeriesEnvelope env = stats::AggregateEnvelope(series);
  EXPECT_DOUBLE_EQ(env.mean[0], 1.0);
  EXPECT_DOUBLE_EQ(env.mean[1], 2.0);
  EXPECT_DOUBLE_EQ(env.std_dev[0], 0.0);
}

TEST(AggregateTest, EnvelopeMeanAndStd) {
  std::vector<std::vector<double>> series{{0.0}, {2.0}};
  stats::SeriesEnvelope env = stats::AggregateEnvelope(series);
  EXPECT_DOUBLE_EQ(env.mean[0], 1.0);
  EXPECT_NEAR(env.std_dev[0], std::sqrt(2.0), 1e-12);
}

TEST(AggregateTest, CrossSectionSelectsColumn) {
  std::vector<std::vector<double>> series{{1.0, 2.0}, {3.0, 4.0}};
  std::vector<double> cross = stats::CrossSection(series, 1);
  EXPECT_EQ(cross.size(), 2u);
  EXPECT_DOUBLE_EQ(cross[0], 2.0);
  EXPECT_DOUBLE_EQ(cross[1], 4.0);
}

TEST(AggregateTest, GroupOrderSortsPositionsStablyByGroup) {
  const stats::GroupOrder order(std::vector<uint8_t>{2, 0, 2, 1, 0, 2, 255});
  EXPECT_EQ(order.positions(), (std::vector<size_t>{1, 4, 3, 0, 2, 5, 6}));
  EXPECT_EQ(order.ids(), (std::vector<uint8_t>{0, 0, 1, 2, 2, 2, 255}));
  EXPECT_EQ(stats::GroupOrder(std::vector<uint8_t>()).size(), 0u);
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(AggregateTest, GroupSumsMatchIndexedAdditionBitwise) {
  // The oracle is the byte-indexed loop whose additions AddGroupSums
  // promises to make. Layouts: one group, two runs, runs of random
  // length, and four groups in random order; values of mixed magnitude,
  // then with both infinities, whose sum is a NaN; and sums that start
  // nonzero.
  rng::Random random(11);
  std::vector<std::vector<uint8_t>> layouts(4);
  layouts[0].assign(300, 0);
  layouts[1].assign(300, 1);
  std::fill(layouts[1].begin() + 120, layouts[1].end(), 0);
  while (layouts[2].size() < 300) {
    const uint8_t g = static_cast<uint8_t>(random.UniformInt(4));
    const size_t length = 1 + static_cast<size_t>(random.UniformInt(9));
    layouts[2].insert(layouts[2].end(), length, g);
  }
  layouts[2].resize(300);
  for (size_t i = 0; i < 300; ++i) {
    layouts[3].push_back(static_cast<uint8_t>(random.UniformInt(4)));
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool with_infinities : {false, true}) {
    std::vector<double> values(300);
    for (double& value : values) {
      value = random.UniformDouble() *
              std::pow(10.0, static_cast<double>(random.UniformInt(30)));
    }
    if (with_infinities) {
      values[7] = inf;
      values[150] = -inf;
    }
    for (const std::vector<uint8_t>& groups : layouts) {
      double expected[4] = {0.5, -1e20, 0.0, 3.25};
      double expected_total = 0.0;
      for (size_t i = 0; i < values.size(); ++i) {
        expected[groups[i]] += values[i];
        expected_total += values[i];
      }
      double sums[4] = {0.5, -1e20, 0.0, 3.25};
      const double total =
          stats::AddGroupSums(values, stats::GroupOrder(groups), sums);
      EXPECT_EQ(Bits(total), Bits(expected_total));
      for (size_t g = 0; g < 4; ++g) {
        EXPECT_EQ(Bits(sums[g]), Bits(expected[g])) << "group " << g;
      }
    }
  }
}

// --- Parameterized sweeps ---------------------------------------------------

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, QuantileIsMonotoneInP) {
  std::vector<double> values{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  double p = GetParam();
  double q_lo = stats::Quantile(values, p * 0.9);
  double q_hi = stats::Quantile(values, std::min(1.0, p * 1.1));
  EXPECT_LE(q_lo, q_hi);
  double q = stats::Quantile(values, p);
  EXPECT_GE(q, 1.0);
  EXPECT_LE(q, 9.0);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, QuantileSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

class CesaroSettleSweep : public ::testing::TestWithParam<int> {};

TEST_P(CesaroSettleSweep, CesaroAveragesOfBernoulliLikeSeriesSettle) {
  // Deterministic pseudo-Bernoulli pattern with long-run mean 1/3: the
  // Cesaro averages must settle and land near 1/3 for any phase offset.
  int phase = GetParam();
  std::vector<double> series;
  for (int i = 0; i < 3000; ++i) {
    series.push_back((i + phase) % 3 == 0 ? 1.0 : 0.0);
  }
  std::vector<double> averages = stats::CesaroAverages(series);
  EXPECT_TRUE(stats::HasSettled(averages, 50, 0.01));
  EXPECT_NEAR(averages.back(), 1.0 / 3.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Phases, CesaroSettleSweep,
                         ::testing::Values(0, 1, 2));

// --- Streaming grouped per-step accumulator ---------------------------------

TEST(AdrAccumulatorTest, DefaultIsEmptyShell) {
  stats::AdrAccumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.num_groups(), 0u);
}

TEST(AdrAccumulatorTest, MomentsMatchRunningStats) {
  stats::AdrAccumulator acc(2, 3, 10);
  stats::RunningStats reference;
  const std::vector<double> values{0.1, 0.4, 0.4, 0.9, 0.25};
  for (double v : values) {
    acc.Add(1, 0, v);
    reference.Add(v);
  }
  EXPECT_EQ(acc.count(1, 0), reference.count());
  EXPECT_DOUBLE_EQ(acc.stats(1, 0).Mean(), reference.Mean());
  EXPECT_DOUBLE_EQ(acc.stats(1, 0).StdDev(), reference.StdDev());
  EXPECT_DOUBLE_EQ(acc.stats(1, 0).Min(), 0.1);
  EXPECT_DOUBLE_EQ(acc.stats(1, 0).Max(), 0.9);
  // Other cells untouched.
  EXPECT_EQ(acc.count(0, 0), 0);
  EXPECT_EQ(acc.count(1, 1), 0);
  EXPECT_EQ(acc.StepCount(1), 5);
}

TEST(AdrAccumulatorTest, BinningMatchesHistogram) {
  stats::AdrAccumulator acc(1, 1, 10);
  stats::Histogram histogram(0.0, 1.0, 10);
  const std::vector<double> values{-0.5, 0.0, 0.05, 0.1, 0.55, 0.999,
                                   1.0,  1.5, 0.3,  0.3};
  for (double v : values) {
    acc.Add(0, 0, v);
    histogram.Add(v);
  }
  for (size_t b = 0; b < 10; ++b) {
    EXPECT_EQ(acc.bin_count(0, 0, b), histogram.count(b)) << "bin " << b;
    EXPECT_DOUBLE_EQ(acc.StepBinFraction(0, b), histogram.Fraction(b));
  }
}

TEST(AdrAccumulatorTest, CrossSectionRoutesByGroup) {
  stats::AdrAccumulator acc(3, 2, 4);
  acc.AddCrossSection(0, {0.1, 0.9, 0.5}, {0, 2, 0});
  EXPECT_EQ(acc.count(0, 0), 2);
  EXPECT_EQ(acc.count(0, 1), 0);
  EXPECT_EQ(acc.count(0, 2), 1);
  EXPECT_DOUBLE_EQ(acc.stats(0, 2).Mean(), 0.9);
}

TEST(AdrAccumulatorTest, QuantilesExactAtExtremesAndMonotone) {
  stats::AdrAccumulator acc(1, 1, 64);
  rng::Random random(99);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(random.UniformDouble());
    acc.Add(0, 0, values.back());
  }
  std::sort(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(acc.ApproxQuantile(0, 0, 0.0), values.front());
  EXPECT_DOUBLE_EQ(acc.ApproxQuantile(0, 0, 1.0), values.back());
  // Inner quantiles land within one bin width of the exact order
  // statistic, and the fan is monotone in p.
  double previous = -1.0;
  for (double p : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    double approx = acc.ApproxQuantile(0, 0, p);
    double exact = values[static_cast<size_t>(p * 1999.0)];
    EXPECT_NEAR(approx, exact, 1.0 / 64.0 + 1e-12) << "p=" << p;
    EXPECT_GE(approx, previous);
    previous = approx;
  }
}

TEST(AdrAccumulatorTest, MergeMatchesSingleAccumulation) {
  stats::AdrAccumulator merged(2, 2, 8);
  stats::AdrAccumulator a(2, 2, 8);
  stats::AdrAccumulator b(2, 2, 8);
  stats::AdrAccumulator reference(2, 2, 8);
  rng::Random random(7);
  for (int i = 0; i < 500; ++i) {
    size_t k = i % 2;
    size_t g = (i / 2) % 2;
    double v = random.UniformDouble();
    (i < 250 ? a : b).Add(k, g, v);
    reference.Add(k, g, v);
  }
  merged.Merge(a);
  merged.Merge(b);
  for (size_t k = 0; k < 2; ++k) {
    for (size_t g = 0; g < 2; ++g) {
      EXPECT_EQ(merged.count(k, g), reference.count(k, g));
      EXPECT_NEAR(merged.stats(k, g).Mean(), reference.stats(k, g).Mean(),
                  1e-12);
      EXPECT_NEAR(merged.stats(k, g).Variance(),
                  reference.stats(k, g).Variance(), 1e-12);
      for (size_t bin = 0; bin < 8; ++bin) {
        EXPECT_EQ(merged.bin_count(k, g, bin),
                  reference.bin_count(k, g, bin));
      }
    }
  }
}

TEST(AdrAccumulatorTest, MergeIntoEmptyAdoptsShape) {
  stats::AdrAccumulator target;  // Shape-less.
  stats::AdrAccumulator source(1, 2, 4);
  source.Add(0, 0, 0.5);
  target.Merge(source);
  EXPECT_EQ(target.num_steps(), 2u);
  EXPECT_EQ(target.count(0, 0), 1);
}

/// Serialized image of a RunningStats — bitwise state comparison for
/// the merge/round-trip tests below (equal buffers <=> equal bits in
/// every field, including the sign of zeros).
std::vector<uint8_t> StatsBytes(const stats::RunningStats& acc) {
  base::BinaryWriter writer;
  acc.Serialize(&writer);
  return writer.TakeBuffer();
}

std::vector<uint8_t> AccumulatorBytes(const stats::AdrAccumulator& acc) {
  base::BinaryWriter writer;
  acc.Serialize(&writer);
  return writer.TakeBuffer();
}

TEST(RunningStatsTest, SerializeRoundTripIsBitwise) {
  stats::RunningStats acc;
  for (double x : {0.3, -1.5, 2.25, 0.3, 7.0}) acc.Add(x);
  const std::vector<uint8_t> bytes = StatsBytes(acc);
  base::BinaryReader reader(bytes.data(), bytes.size());
  stats::RunningStats restored;
  ASSERT_TRUE(restored.Deserialize(&reader));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(StatsBytes(restored), bytes);
  // And the restored accumulator keeps accumulating identically.
  acc.Add(0.125);
  restored.Add(0.125);
  EXPECT_EQ(StatsBytes(restored), StatsBytes(acc));
}

TEST(RunningStatsTest, MergeWithEmptyShardPreservesBits) {
  // An empty shard is a no-op on either side: merging it must not
  // change a single bit of the populated accumulator (the sharded
  // engine merges every shard unconditionally, including shards whose
  // user range produced no observations).
  stats::RunningStats populated;
  for (double x : {0.1, 0.7, 0.7, 0.2}) populated.Add(x);
  const std::vector<uint8_t> before = StatsBytes(populated);

  stats::RunningStats empty;
  populated.Merge(empty);
  EXPECT_EQ(StatsBytes(populated), before);

  stats::RunningStats adopted;
  adopted.Merge(populated);
  EXPECT_EQ(StatsBytes(adopted), before);
}

TEST(RunningStatsTest, MergeOrderIsPinnedButNotCommutativeBitwise) {
  // Chan et al.'s pairwise merge is algebraically symmetric but not
  // bitwise so: different merge orders may land on different last-ulp
  // results. The sharded engine therefore merges in fixed shard order —
  // this test pins both halves of that contract: same order, same bits;
  // any order, same statistics to rounding.
  auto fill = [](std::initializer_list<double> values) {
    stats::RunningStats acc;
    for (double x : values) acc.Add(x);
    return acc;
  };
  const stats::RunningStats a = fill({0.1, 0.7});
  const stats::RunningStats b = fill({1000.25, -2.5, 0.3});
  const stats::RunningStats c = fill({-7.25, 4.4});

  auto merged = [](const stats::RunningStats& x, const stats::RunningStats& y,
                   const stats::RunningStats& z) {
    stats::RunningStats out;
    out.Merge(x);
    out.Merge(y);
    out.Merge(z);
    return out;
  };
  const stats::RunningStats forward = merged(a, b, c);
  const stats::RunningStats again = merged(a, b, c);
  const stats::RunningStats reversed = merged(c, b, a);
  // Deterministic: the same order reproduces the same bits.
  EXPECT_EQ(StatsBytes(again), StatsBytes(forward));
  // Any order agrees statistically (counts exactly, moments to
  // rounding) — but only the pinned order is bitwise-reproducible.
  EXPECT_EQ(reversed.count(), forward.count());
  EXPECT_NEAR(reversed.Mean(), forward.Mean(), 1e-9);
  EXPECT_DOUBLE_EQ(reversed.Min(), forward.Min());
  EXPECT_DOUBLE_EQ(reversed.Max(), forward.Max());
}

TEST(AdrAccumulatorTest, MergeEmptyShardsPreservesBits) {
  stats::AdrAccumulator populated(2, 3, 4);
  populated.Add(0, 1, 0.4);
  populated.Add(2, 0, 0.9);
  const std::vector<uint8_t> before = AccumulatorBytes(populated);

  // A shaped-but-unfilled shard (what an all-idle shard produces).
  stats::AdrAccumulator idle(2, 3, 4);
  populated.Merge(idle);
  EXPECT_EQ(AccumulatorBytes(populated), before);

  // A shape-less default accumulator is equally inert.
  stats::AdrAccumulator shapeless;
  populated.Merge(shapeless);
  EXPECT_EQ(AccumulatorBytes(populated), before);
}

TEST(AdrAccumulatorTest, SingleShardMergeMatchesUnshardedBitwise) {
  // One shard that saw every observation, merged into an empty target,
  // must equal the unsharded accumulator bit for bit — the degenerate
  // case of the shard-order merge (and the adopt-on-empty fast path).
  stats::AdrAccumulator unsharded(3, 2, 8);
  stats::AdrAccumulator shard(3, 2, 8);
  rng::Random random(77);
  for (int i = 0; i < 200; ++i) {
    const size_t k = static_cast<size_t>(random.UniformInt(2));
    const size_t g = static_cast<size_t>(random.UniformInt(3));
    const double value = random.UniformDouble();
    unsharded.Add(k, g, value);
    shard.Add(k, g, value);
  }
  stats::AdrAccumulator target;
  target.Merge(shard);
  EXPECT_EQ(AccumulatorBytes(target), AccumulatorBytes(unsharded));
}

TEST(AdrAccumulatorTest, SerializeRoundTripIsBitwise) {
  stats::AdrAccumulator acc(2, 4, 8, 0.0, 1.0);
  rng::Random random(5);
  for (int i = 0; i < 100; ++i) {
    acc.Add(static_cast<size_t>(random.UniformInt(4)),
            static_cast<size_t>(random.UniformInt(2)),
            random.UniformDouble());
  }
  const std::vector<uint8_t> bytes = AccumulatorBytes(acc);
  stats::AdrAccumulator restored;
  base::BinaryReader reader(bytes.data(), bytes.size());
  ASSERT_TRUE(restored.Deserialize(&reader));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(AccumulatorBytes(restored), bytes);
  // Resumed accumulation stays in lockstep with the original.
  acc.Add(1, 1, 0.5);
  restored.Add(1, 1, 0.5);
  EXPECT_EQ(AccumulatorBytes(restored), AccumulatorBytes(acc));
}

TEST(AdrAccumulatorTest, DeserializeRejectsTruncatedBytes) {
  stats::AdrAccumulator acc(2, 2, 4);
  acc.Add(0, 0, 0.5);
  const std::vector<uint8_t> bytes = AccumulatorBytes(acc);
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{3}}) {
    stats::AdrAccumulator target;
    base::BinaryReader reader(bytes.data(), cut);
    EXPECT_FALSE(target.Deserialize(&reader)) << "cut at " << cut;
  }
}

/// A cross-section over four groups whose moments depend on the fold
/// order: groups 0 and 1 hold finite values, some outside [0, 1]; group
/// 0 also gets signed zeros, group 3 the infinities and `special`
/// between finite values, and group 2 stays empty.
void MixedCrossSection(double special, std::vector<double>* values,
                       std::vector<uint8_t>* groups) {
  const double inf = std::numeric_limits<double>::infinity();
  rng::Random random(11);
  for (int i = 0; i < 40; ++i) {
    values->push_back(random.UniformDouble(-0.5, 1.5));
    groups->push_back(static_cast<uint8_t>(i % 2));
  }
  for (const double zero : {-0.0, 0.0, -0.0}) {
    values->push_back(zero);
    groups->push_back(0);
  }
  for (const double value : {inf, 0.5, -inf, special, 0.25}) {
    values->push_back(value);
    groups->push_back(3);
  }
}

TEST(AdrAccumulatorTest, RunsMatchCrossSectionBitwise) {
  // Each step takes two cross-sections, so the second folds onto a
  // populated cell. Each group's values go in as runs of uneven lengths,
  // in index order, the way the credit engine's race stages fold them
  // chunk by chunk.
  std::vector<double> values;
  std::vector<uint8_t> groups;
  MixedCrossSection(std::numeric_limits<double>::quiet_NaN(), &values,
                    &groups);
  const std::vector<double> reversed(values.rbegin(), values.rend());
  const std::vector<uint8_t> reversed_groups(groups.rbegin(), groups.rend());
  stats::AdrAccumulator whole(4, 2, 8, 0.0, 1.0);
  stats::AdrAccumulator runs(4, 2, 8, 0.0, 1.0);
  const auto add_runs = [&runs](size_t k, const std::vector<double>& section,
                                const std::vector<uint8_t>& ids) {
    for (size_t g = 0; g < 4; ++g) {
      std::vector<double> members;
      for (size_t i = 0; i < section.size(); ++i) {
        if (ids[i] == g) members.push_back(section[i]);
      }
      for (size_t begin = 0, length = 1; begin < members.size();
           begin += length, length += 2) {
        length = std::min(length, members.size() - begin);
        runs.AddRun(k, g, members.data() + begin, length);
      }
      runs.AddRun(k, g, members.data(), 0);
    }
  };
  for (int pass = 0; pass < 2; ++pass) {
    whole.AddCrossSection(0, values, groups);
    whole.AddCrossSection(1, reversed, reversed_groups);
    add_runs(0, values, groups);
    add_runs(1, reversed, reversed_groups);
  }
  EXPECT_EQ(AccumulatorBytes(runs), AccumulatorBytes(whole));
  EXPECT_EQ(runs.count(0, 2), 0);
  EXPECT_EQ(runs.count(0, 3), 10);
  EXPECT_TRUE(std::isnan(runs.stats(0, 3).Mean()));
  // Both infinities clamp to an end bin; NaN counts in the last one.
  EXPECT_EQ(runs.bin_count(0, 3, 7), 4);
}

/// Four steps' sections of one group layout: section j rotates every
/// group's values by j places among its own slots, so each value meets
/// its cell's chain at another position in every step.
std::vector<std::vector<double>> RotatedSections(
    const std::vector<double>& values, const std::vector<uint8_t>& groups) {
  std::vector<std::vector<double>> sections(4, values);
  for (size_t g = 0; g <= 0xff; ++g) {
    std::vector<size_t> slots;
    for (size_t i = 0; i < values.size(); ++i) {
      if (groups[i] == g) slots.push_back(i);
    }
    for (size_t j = 0; j < 4; ++j) {
      for (size_t t = 0; t < slots.size(); ++t) {
        sections[j][slots[t]] = values[slots[(t + j) % slots.size()]];
      }
    }
  }
  return sections;
}

/// The first `count` sections end to end, as AddCrossSections takes them.
std::vector<double> Concatenated(
    const std::vector<std::vector<double>>& sections, size_t count) {
  std::vector<double> flat;
  for (size_t j = 0; j < count; ++j) {
    flat.insert(flat.end(), sections[j].begin(), sections[j].end());
  }
  return flat;
}

TEST(AdrAccumulatorTest, BatchedCrossSectionsMatchPerStepFoldBitwise) {
  // The same inputs as up to four steps' sections, so the infinities and
  // the NaN meet each cell's chain in a different order per step.
  // Without the NaN (-1e308 in its place) the infinities still make NaNs
  // inside the side-by-side fold; with it, a foreign NaN sends the runs
  // to the one-section fold, and a later pass without it folds onto
  // cells that hold it. Four sections take the AVX2 lane where the CPU
  // has one, and the scalar fold when the lanes are forced off.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double kSpecials[][2] = {{nan, nan}, {-1e308, -1e308}, {nan, -1e308}};
  for (const bool force_scalar : {false, true}) {
    base::SetSimdForceScalarForTesting(force_scalar);
    for (const auto& specials : kSpecials) {
      std::vector<std::vector<double>> sections[2];
      std::vector<uint8_t> groups;
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<double> values;
        groups.clear();
        MixedCrossSection(specials[pass], &values, &groups);
        sections[pass] = RotatedSections(values, groups);
      }
      for (size_t count = 1; count <= 4; ++count) {
        stats::AdrAccumulator per_step(4, 5, 8, 0.0, 1.0);
        stats::AdrAccumulator batched(4, 5, 8, 0.0, 1.0);
        // Two passes: the second folds onto populated cells.
        for (int pass = 0; pass < 2; ++pass) {
          for (size_t j = 0; j < count; ++j) {
            per_step.AddCrossSection(1 + j, sections[pass][j], groups);
          }
          batched.AddCrossSections(1, count,
                                   Concatenated(sections[pass], count),
                                   groups);
        }
        EXPECT_EQ(AccumulatorBytes(batched), AccumulatorBytes(per_step))
            << count << " sections, specials " << specials[0] << ", "
            << specials[1] << ", scalar " << force_scalar;
        EXPECT_EQ(batched.count(1, 2), 0);
        EXPECT_EQ(batched.count(count, 3), 10);
        EXPECT_TRUE(std::isnan(batched.stats(count, 3).Mean()));
      }
    }
  }
  base::SetSimdForceScalarForTesting(false);
}

/// A cross-section of what only a vector replay of the fold could get
/// wrong, over [lo, hi] in `num_bins` bins. Group 0 holds lo, hi, every
/// bin edge and its neighbours one ulp away, values out of range,
/// signed zeros and subnormals, in two runs around group 1's one value;
/// group 2 holds both infinities and no NaN, so the fold makes its own
/// NaNs; group 3 holds random values in two runs at the ends; group 4
/// holds only zeros of both signs, whose min and max keep the sign that
/// std::min and std::max pick.
void LaneEdgeCrossSection(double lo, double hi, size_t num_bins,
                          std::vector<double>* values,
                          std::vector<uint8_t>* groups) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> edges = {lo - 1.0, hi + 1.0, -0.0,    0.0, 5e-324,
                               -5e-324,  1e-310,   2.2e-308, lo,  hi};
  const double width = (hi - lo) / static_cast<double>(num_bins);
  for (size_t b = 0; b <= num_bins; ++b) {
    const double edge = lo + static_cast<double>(b) * width;
    for (const double value :
         {edge, std::nextafter(edge, -inf), std::nextafter(edge, inf)}) {
      edges.push_back(value);
    }
  }
  rng::Random random(17);
  const auto add = [values, groups](double value, uint8_t group) {
    values->push_back(value);
    groups->push_back(group);
  };
  for (int i = 0; i < 5; ++i) add(random.UniformDouble(lo - 0.5, hi + 0.5), 3);
  for (size_t i = 0; i < edges.size() / 2; ++i) add(edges[i], 0);
  add(0.37, 1);
  for (size_t i = edges.size() / 2; i < edges.size(); ++i) add(edges[i], 0);
  for (const double value : {0.25, inf, -0.5, -inf, 0.75}) add(value, 2);
  for (const double zero : {-0.0, 0.0, -0.0, 0.0, 0.0}) add(zero, 4);
  for (int i = 0; i < 5; ++i) add(random.UniformDouble(lo - 0.5, hi + 0.5), 3);
}

TEST(AdrAccumulatorTest, BatchedFoldLaneEdgesMatchPerStepFoldBitwise) {
  // Each cell is populated unevenly first, so the four sections' cells
  // enter the batch at different counts (the lanes' counts differ). Over
  // [0, 6e-323] the bin width rounds from 1.5 to 2 subnormal steps, so
  // hi itself falls in bin 6 of 8, and only clamping to hi puts a value
  // above it there too.
  const struct {
    size_t num_bins;
    double lo;
    double hi;
  } kShapes[] = {
      {8, 0.0, 1.0}, {1, 0.0, 1.0}, {7, -0.3, 0.7}, {8, 0.0, 6e-323}};
  for (const auto& shape : kShapes) {
    std::vector<double> values;
    std::vector<uint8_t> groups;
    LaneEdgeCrossSection(shape.lo, shape.hi, shape.num_bins, &values,
                         &groups);
    const std::vector<std::vector<double>> sections =
        RotatedSections(values, groups);
    for (const bool force_scalar : {false, true}) {
      base::SetSimdForceScalarForTesting(force_scalar);
      for (size_t count = 1; count <= 4; ++count) {
        stats::AdrAccumulator per_step(5, 6, shape.num_bins, shape.lo,
                                       shape.hi);
        stats::AdrAccumulator batched(5, 6, shape.num_bins, shape.lo,
                                      shape.hi);
        rng::Random random(29);
        for (size_t j = 0; j < count; ++j) {
          for (size_t g = 0; g < 5; ++g) {
            for (size_t c = 0; c < 3 * j + g + 1; ++c) {
              const double value = g < 4    ? random.UniformDouble(-0.5, 1.5)
                                   : c % 2 ? 0.0
                                           : -0.0;
              per_step.Add(1 + j, g, value);
              batched.Add(1 + j, g, value);
            }
          }
          per_step.AddCrossSection(1 + j, sections[j], groups);
        }
        batched.AddCrossSections(1, count, Concatenated(sections, count),
                                 groups);
        EXPECT_EQ(AccumulatorBytes(batched), AccumulatorBytes(per_step))
            << count << " sections, " << shape.num_bins << " bins over ["
            << shape.lo << ", " << shape.hi << "], scalar " << force_scalar;
        EXPECT_EQ(batched.count(count, 1), static_cast<int64_t>(3 * count));
        EXPECT_TRUE(std::isnan(batched.stats(count, 2).Variance()));
        EXPECT_EQ(batched.stats(count, 4).Max(), 0.0);
      }
    }
  }
  base::SetSimdForceScalarForTesting(false);
}

TEST(AdrAccumulatorTest, CrossSectionBatchFoldsEveryStepOnce) {
  // Seven steps are one full batch of four and a flushed batch of three,
  // with the groups in runs and with their ids interleaved.
  for (const std::vector<uint8_t>& groups :
       {std::vector<uint8_t>{1, 1, 0, 0, 0, 2},
        std::vector<uint8_t>{2, 0, 0, 1, 0, 1, 1, 2}}) {
    stats::AdrAccumulator per_step(3, 7, 4);
    stats::AdrAccumulator batched(3, 7, 4);
    const stats::GroupOrder order(groups);
    stats::CrossSectionBatch batch(&batched, &order);
    rng::Random random(5);
    for (size_t k = 0; k < 7; ++k) {
      std::vector<double> values(groups.size());
      for (double& value : values) value = random.UniformDouble();
      per_step.AddCrossSection(k, values, groups);
      batch.Add(k, values);
    }
    EXPECT_EQ(batched.count(4, 0), 0);  // Steps 4 to 6 are still buffered.
    batch.Flush();
    EXPECT_EQ(AccumulatorBytes(batched), AccumulatorBytes(per_step));
    batch.Flush();  // Nothing is left to fold twice.
    EXPECT_EQ(AccumulatorBytes(batched), AccumulatorBytes(per_step));
  }
}

}  // namespace
}  // namespace eqimpact
