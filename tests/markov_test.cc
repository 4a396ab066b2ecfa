// Unit tests for the markov module: finite chains, affine maps and affine
// IFS (with exact contraction certificates).

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "markov/affine_ifs.h"
#include "markov/affine_map.h"
#include "markov/markov_chain.h"
#include "rng/random.h"

namespace eqimpact {
namespace {

using linalg::Matrix;
using linalg::Vector;
using markov::AffineIfs;
using markov::AffineMap;
using markov::MarkovChain;
using markov::TotalVariationDistance;

MarkovChain TwoStateChain(double alpha, double beta) {
  return MarkovChain(Matrix{{1.0 - alpha, alpha}, {beta, 1.0 - beta}});
}

TEST(MarkovChainTest, StationaryDistributionClosedForm) {
  MarkovChain chain = TwoStateChain(0.2, 0.4);
  auto pi = chain.StationaryDistribution();
  ASSERT_TRUE(pi.has_value());
  EXPECT_NEAR((*pi)[0], 0.4 / 0.6, 1e-12);
  EXPECT_NEAR((*pi)[1], 0.2 / 0.6, 1e-12);
}

TEST(MarkovChainTest, IrreducibilityDetection) {
  EXPECT_TRUE(TwoStateChain(0.2, 0.4).IsIrreducible());
  // Absorbing state 1: not irreducible.
  MarkovChain absorbing(Matrix{{0.5, 0.5}, {0.0, 1.0}});
  EXPECT_FALSE(absorbing.IsIrreducible());
}

TEST(MarkovChainTest, PeriodicityDetection) {
  MarkovChain flip(Matrix{{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_TRUE(flip.IsIrreducible());
  EXPECT_EQ(flip.Period(), 2u);
  EXPECT_EQ(TwoStateChain(0.2, 0.4).Period(), 1u);
}

TEST(MarkovChainTest, PropagateConvergesToStationary) {
  MarkovChain chain = TwoStateChain(0.3, 0.1);
  Vector initial{1.0, 0.0};
  Vector distribution = chain.Propagate(initial, 200);
  auto pi = chain.StationaryDistribution();
  ASSERT_TRUE(pi.has_value());
  EXPECT_TRUE(AllClose(distribution, *pi, 1e-10));
}

TEST(MarkovChainTest, PropagatePreservesProbabilityMass) {
  MarkovChain chain = TwoStateChain(0.3, 0.1);
  Vector distribution = chain.Propagate(Vector{0.25, 0.75}, 17);
  EXPECT_NEAR(distribution.Sum(), 1.0, 1e-12);
}

TEST(MarkovChainTest, SimulatedPathHasCorrectLengthAndStates) {
  MarkovChain chain = TwoStateChain(0.3, 0.1);
  rng::Random random(1);
  auto path = chain.SimulatePath(0, 100, &random);
  EXPECT_EQ(path.size(), 101u);
  for (size_t s : path) EXPECT_LT(s, 2u);
}

TEST(MarkovChainTest, ErgodicTheoremOccupationMatchesStationary) {
  MarkovChain chain = TwoStateChain(0.3, 0.1);
  rng::Random random(2);
  Vector occupation = chain.EmpiricalOccupation(0, 200000, 1000, &random);
  auto pi = chain.StationaryDistribution();
  ASSERT_TRUE(pi.has_value());
  EXPECT_NEAR(occupation[0], (*pi)[0], 0.01);
}

TEST(MarkovChainTest, OccupationIndependentOfInitialState) {
  MarkovChain chain = TwoStateChain(0.25, 0.15);
  rng::Random random_a(3), random_b(4);
  Vector from0 = chain.EmpiricalOccupation(0, 200000, 1000, &random_a);
  Vector from1 = chain.EmpiricalOccupation(1, 200000, 1000, &random_b);
  EXPECT_NEAR(from0[0], from1[0], 0.01);
}

TEST(TotalVariationTest, KnownDistances) {
  EXPECT_DOUBLE_EQ(
      TotalVariationDistance(Vector{1.0, 0.0}, Vector{0.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(
      TotalVariationDistance(Vector{0.5, 0.5}, Vector{0.5, 0.5}), 0.0);
  EXPECT_NEAR(TotalVariationDistance(Vector{0.7, 0.3}, Vector{0.5, 0.5}),
              0.2, 1e-12);
}

TEST(AffineMapTest, ScalarApplication) {
  AffineMap map = AffineMap::Scalar(0.5, 1.0);
  Vector image = map(Vector{4.0});
  EXPECT_DOUBLE_EQ(image[0], 3.0);
  EXPECT_DOUBLE_EQ(map.LipschitzConstant(), 0.5);
}

TEST(AffineMapTest, LipschitzConstantIsSpectralNorm) {
  // For a symmetric matrix the spectral norm is the largest |eigenvalue|.
  Matrix a{{0.6, 0.0}, {0.0, -0.8}};
  AffineMap map(a, Vector(2));
  EXPECT_NEAR(map.LipschitzConstant(), 0.8, 1e-8);
}

TEST(AffineMapTest, RotationScalingLipschitz) {
  // 0.9 x rotation: Lipschitz constant 0.9 regardless of angle.
  double c = 0.9 * std::cos(0.7), s = 0.9 * std::sin(0.7);
  AffineMap map(Matrix{{c, -s}, {s, c}}, Vector(2));
  EXPECT_NEAR(map.LipschitzConstant(), 0.9, 1e-8);
}

TEST(AffineIfsTest, AverageContractionFactorIsExact) {
  AffineIfs ifs({AffineMap::Scalar(0.5, 0.0), AffineMap::Scalar(0.9, 0.1)},
                {0.5, 0.5});
  EXPECT_NEAR(ifs.AverageContractionFactor(), 0.7, 1e-12);
  EXPECT_TRUE(ifs.IsAverageContractive());
}

TEST(AffineIfsTest, NonContractiveSystemDetected) {
  AffineIfs ifs({AffineMap::Scalar(1.2, 0.0), AffineMap::Scalar(0.9, 0.1)},
                {0.9, 0.1});
  EXPECT_GT(ifs.AverageContractionFactor(), 1.0);
  EXPECT_FALSE(ifs.IsAverageContractive());
}

TEST(AffineIfsTest, InvariantMeanMatchesTheory) {
  // Two maps on R: w1 = 0.5x, w2 = 0.5x + 1, p = (1/2, 1/2).
  // Mean m satisfies m = 0.5 m + 0.5, so m = 1.
  AffineIfs ifs({AffineMap::Scalar(0.5, 0.0), AffineMap::Scalar(0.5, 1.0)},
                {0.5, 0.5});
  EXPECT_NEAR(ifs.InvariantMean()[0], 1.0, 1e-12);
}

TEST(AffineIfsTest, TimeAverageMatchesInvariantMean) {
  AffineIfs ifs({AffineMap::Scalar(0.5, 0.0), AffineMap::Scalar(0.5, 1.0)},
                {0.5, 0.5});
  rng::Random random(7);
  double average = ifs.TimeAverage(
      Vector{10.0}, 200000, 100, [](const Vector& x) { return x[0]; },
      &random);
  EXPECT_NEAR(average, 1.0, 0.01);
}

TEST(AffineIfsTest, EltonCheckPassesForContractiveSystem) {
  AffineIfs ifs({AffineMap::Scalar(0.5, 0.0), AffineMap::Scalar(0.5, 1.0)},
                {0.5, 0.5});
  rng::Random random(8);
  auto report = VerifyEltonConvergence(
      ifs, {Vector{-50.0}, Vector{0.0}, Vector{50.0}}, 100000, 100,
      [](const Vector& x) { return x[0]; }, 0.05, &random);
  EXPECT_TRUE(report.initial_condition_independent);
  EXPECT_EQ(report.time_averages.size(), 3u);
}

TEST(AffineIfsTest, EltonCheckFailsForExpansiveDeterministicSystem) {
  // A single expansive map: trajectories diverge at a rate set by the
  // initial condition, so time averages cannot agree.
  AffineIfs ifs({AffineMap::Scalar(1.05, 0.0)}, {1.0});
  rng::Random random(9);
  auto report = VerifyEltonConvergence(
      ifs, {Vector{1.0}, Vector{2.0}}, 500, 0,
      [](const Vector& x) { return x[0]; }, 0.05, &random);
  EXPECT_FALSE(report.initial_condition_independent);
}

// --- Parameterized sweeps ---------------------------------------------------

class ContractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ContractionSweep, TimeAverageMatchesExactInvariantMean) {
  const double slope = GetParam();
  AffineIfs ifs({AffineMap::Scalar(slope, 0.0),
                 AffineMap::Scalar(slope, 1.0 - slope)},
                {0.5, 0.5});
  ASSERT_TRUE(ifs.IsAverageContractive());
  // Exact mean: m = slope * m + (1 - slope)/2 => m = 1/2.
  EXPECT_NEAR(ifs.InvariantMean()[0], 0.5, 1e-12);
  rng::Random random(static_cast<uint64_t>(slope * 1000));
  double average = ifs.TimeAverage(
      Vector{7.0}, 100000, 200, [](const Vector& x) { return x[0]; },
      &random);
  EXPECT_NEAR(average, 0.5, 0.02) << "slope " << slope;
}

INSTANTIATE_TEST_SUITE_P(Slopes, ContractionSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

class ChainMixSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChainMixSweep, PropagationContractsInTotalVariation) {
  // For any positive two-state chain, consecutive propagated distributions
  // approach each other: TV(mu P^k, pi) is non-increasing in k.
  double alpha = GetParam();
  MarkovChain chain = TwoStateChain(alpha, 0.5 * alpha);
  auto pi = chain.StationaryDistribution();
  ASSERT_TRUE(pi.has_value());
  Vector mu{1.0, 0.0};
  double previous = TotalVariationDistance(mu, *pi);
  // The two-state chain contracts TV by |1 - alpha - beta| per step; 120
  // steps suffice even for the slowest sweep point (0.85^120 ~ 3e-9).
  for (int k = 0; k < 120; ++k) {
    mu = chain.Propagate(mu, 1);
    double current = TotalVariationDistance(mu, *pi);
    EXPECT_LE(current, previous + 1e-12) << "alpha " << alpha << " k " << k;
    previous = current;
  }
  EXPECT_LT(previous, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ChainMixSweep,
                         ::testing::Values(0.1, 0.2, 0.4, 0.6, 0.8));

}  // namespace
}  // namespace eqimpact
