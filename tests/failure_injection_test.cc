// Failure-injection tests: violated preconditions must abort loudly (the
// library's documented CHECK contract), not corrupt a fairness audit.
// One test per representative precondition across the modules.

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "credit/adr_filter.h"
#include "credit/repayment_model.h"
#include "graph/digraph.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "market/matching_market.h"
#include "markov/affine_ifs.h"
#include "markov/affine_map.h"
#include "markov/markov_chain.h"
#include "ml/dataset.h"
#include "rng/categorical.h"
#include "rng/random.h"
#include "stats/histogram.h"
#include "stats/time_series.h"

namespace eqimpact {
namespace {

using DeathTest = ::testing::Test;

TEST(FailureInjectionTest, VectorOutOfBoundsAborts) {
  linalg::Vector v{1.0, 2.0};
  EXPECT_DEATH(v[2], "CHECK failed");
}

TEST(FailureInjectionTest, VectorDimensionMismatchAborts) {
  linalg::Vector a{1.0, 2.0};
  linalg::Vector b{1.0};
  EXPECT_DEATH(a += b, "CHECK failed");
  EXPECT_DEATH(Dot(a, b), "CHECK failed");
}

TEST(FailureInjectionTest, MatrixShapeMismatchAborts) {
  linalg::Matrix a(2, 3);
  linalg::Matrix b(2, 3);
  EXPECT_DEATH(a * b, "CHECK failed");
  EXPECT_DEATH(a(2, 0), "CHECK failed");
}

TEST(FailureInjectionTest, RaggedInitializerAborts) {
  EXPECT_DEATH((linalg::Matrix{{1.0, 2.0}, {3.0}}), "CHECK failed");
}

TEST(FailureInjectionTest, NonStochasticChainAborts) {
  linalg::Matrix bad{{0.5, 0.6}, {0.5, 0.5}};
  EXPECT_DEATH(markov::MarkovChain{bad}, "CHECK failed");
}

TEST(FailureInjectionTest, IfsProbabilityMismatchAborts) {
  EXPECT_DEATH(markov::AffineIfs({markov::AffineMap::Scalar(0.5, 0.0)},
                                 {0.5, 0.5}),
               "CHECK failed");
  EXPECT_DEATH(markov::AffineIfs({markov::AffineMap::Scalar(0.5, 0.0)},
                                 {0.7}),
               "CHECK failed");
}

TEST(FailureInjectionTest, CategoricalRejectsInvalidWeights) {
  EXPECT_DEATH(rng::Categorical({}), "CHECK failed");
  EXPECT_DEATH(rng::Categorical({-1.0, 2.0}), "CHECK failed");
  EXPECT_DEATH(rng::Categorical({0.0, 0.0}), "CHECK failed");
}

TEST(FailureInjectionTest, RandomUniformIntZeroAborts) {
  rng::Random random(1);
  EXPECT_DEATH(random.UniformInt(0), "CHECK failed");
}

TEST(FailureInjectionTest, DatasetRejectsBadLabelOrShape) {
  ml::Dataset data(2);
  EXPECT_DEATH(data.Add(linalg::Vector{1.0, 2.0}, 0.5), "CHECK failed");
  EXPECT_DEATH(data.Add(linalg::Vector{1.0}, 1.0), "CHECK failed");
}

TEST(FailureInjectionTest, GraphEdgeOutOfRangeAborts) {
  graph::Digraph g(2);
  EXPECT_DEATH(g.AddEdge(0, 2), "CHECK failed");
  EXPECT_DEATH(g.Successors(5), "CHECK failed");
}

TEST(FailureInjectionTest, HistogramInvalidRangeAborts) {
  EXPECT_DEATH(stats::Histogram(1.0, 1.0, 4), "CHECK failed");
  EXPECT_DEATH(stats::Histogram(0.0, 1.0, 0), "CHECK failed");
}

TEST(FailureInjectionTest, QuantileOfEmptySampleAborts) {
  EXPECT_DEATH(stats::Quantile({}, 0.5), "CHECK failed");
}

TEST(FailureInjectionTest, GiniRejectsNegativeValues) {
  EXPECT_DEATH(stats::GiniCoefficient({1.0, -0.5}), "CHECK failed");
  // A NaN would break the sort's ordering and the bucket range, so every
  // value is checked before sorting, here in samples large enough to be
  // bucketed.
  std::vector<double> values(500);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i % 17);
  }
  std::vector<double> negative = values;
  negative[250] = -1e-300;
  EXPECT_DEATH(stats::GiniCoefficient(negative), "CHECK failed");
  std::vector<double> nan = values;
  nan[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(stats::GiniCoefficient(nan), "CHECK failed");
  EXPECT_DEATH(
      stats::GiniCoefficient({std::numeric_limits<double>::quiet_NaN()}),
      "CHECK failed");
}

TEST(FailureInjectionTest, RepaymentModelRejectsNonPositiveIncome) {
  credit::RepaymentModel model;
  EXPECT_DEATH(model.SurplusShare(0.0), "CHECK failed");
  EXPECT_DEATH(model.MaxAffordableMortgage(20.0, 1.5), "CHECK failed");
}

TEST(FailureInjectionTest, AdrFilterUserIndexOutOfRangeAborts) {
  credit::AdrFilter filter(1);
  EXPECT_DEATH(filter.Update(1, true, true), "CHECK failed");
  EXPECT_DEATH(filter.UserAdr(7), "CHECK failed");
}

TEST(FailureInjectionTest, MarketWithoutRatingPriorAborts) {
  market::MatchingMarketOptions options;
  options.num_workers = 10;
  options.rounds = 2;
  options.prior_weight = 0.0;
  EXPECT_DEATH(market::RunMatchingMarket(market::MatchingRule::kTopScore,
                                         options),
               "CHECK failed");
}

TEST(FailureInjectionTest, ForgettingFactorOutOfRangeAborts) {
  EXPECT_DEATH(credit::AdrFilter(1, 0.0),
               "CHECK failed");
  EXPECT_DEATH(credit::AdrFilter(1, 1.5),
               "CHECK failed");
}

}  // namespace
}  // namespace eqimpact
