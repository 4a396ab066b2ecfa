// Unit tests for synchronous couplings — the constructive side of the
// paper's conclusion on coupling arguments.

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/vector.h"
#include "markov/affine_ifs.h"
#include "markov/affine_map.h"
#include "markov/coupling.h"
#include "rng/random.h"

namespace eqimpact {
namespace {

using linalg::Vector;
using markov::AffineIfs;
using markov::AffineMap;

AffineIfs BernoulliConvolutionIfs(double slope) {
  // w1 = slope x, w2 = slope x + (1 - slope): invariant measure supported
  // on [0, 1] with mean 1/2.
  return AffineIfs(
      {AffineMap::Scalar(slope, 0.0), AffineMap::Scalar(slope, 1.0 - slope)},
      {0.5, 0.5});
}

// --- Synchronous coupling ---------------------------------------------------

TEST(CouplingTest, ContractiveIfsCouplesGeometrically) {
  AffineIfs ifs = BernoulliConvolutionIfs(0.5);
  rng::Random random(31);
  markov::CouplingResult result = SynchronousCoupling(
      ifs, Vector{-100.0}, Vector{100.0}, 200, 1e-9, &random);
  EXPECT_TRUE(result.coupled);
  EXPECT_LT(result.final_distance, 1e-9);
  // Coupling time ~ log2(200 / 1e-9) ~ 38 steps.
  EXPECT_LE(result.coupling_time, 60u);
  // Both maps have slope 0.5, so the coupling contracts by exactly 1/2
  // per step. Measure the rate over a short window: after ~60 steps the
  // two doubles become bit-identical and the empirical rate saturates.
  markov::CouplingResult short_run = SynchronousCoupling(
      ifs, Vector{-100.0}, Vector{100.0}, 30, 1e-300, &random);
  EXPECT_NEAR(short_run.per_step_rate, 0.5, 1e-6);
}

TEST(CouplingTest, ExpansiveMapNeverCouples) {
  AffineIfs ifs({AffineMap::Scalar(1.1, 0.0)}, {1.0});
  rng::Random random(32);
  markov::CouplingResult result =
      SynchronousCoupling(ifs, Vector{0.0}, Vector{1.0}, 100, 1e-6, &random);
  EXPECT_FALSE(result.coupled);
  EXPECT_GT(result.final_distance, 1.0);
  EXPECT_NEAR(result.per_step_rate, 1.1, 1e-6);
}

TEST(CouplingTest, IdenticalStartsStayCoupled) {
  AffineIfs ifs = BernoulliConvolutionIfs(0.7);
  rng::Random random(33);
  markov::CouplingResult result =
      SynchronousCoupling(ifs, Vector{1.0}, Vector{1.0}, 50, 1e-12, &random);
  EXPECT_TRUE(result.coupled);
  EXPECT_EQ(result.coupling_time, 1u);  // Already within threshold at k=1.
  EXPECT_DOUBLE_EQ(result.final_distance, 0.0);
}

TEST(CouplingTest, MixedSlopesCoupleWhenLogAverageIsNegative) {
  // Slopes 1.2 and 0.5 with p = 1/2 each: E[log slope] =
  // (log 1.2 + log 0.5)/2 < 0, so the coupling contracts almost surely
  // even though one map is expansive. (Average contractivity in the
  // arithmetic sense also holds: 0.85 < 1.)
  AffineIfs ifs(
      {AffineMap::Scalar(1.2, 0.0), AffineMap::Scalar(0.5, 0.25)},
      {0.5, 0.5});
  EXPECT_TRUE(ifs.IsAverageContractive());
  rng::Random random(36);
  markov::CouplingResult result = SynchronousCoupling(
      ifs, Vector{-10.0}, Vector{10.0}, 2000, 1e-6, &random);
  EXPECT_TRUE(result.coupled);
  EXPECT_LT(result.final_distance, 1e-6);
}

class CouplingRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(CouplingRateSweep, PerStepRateMatchesCommonSlope) {
  // When every map shares the same linear part, the synchronous coupling
  // contracts at exactly that slope.
  double slope = GetParam();
  AffineIfs ifs = BernoulliConvolutionIfs(slope);
  rng::Random random(static_cast<uint64_t>(1000 * slope));
  // 20 steps keeps the distance far above the double-precision floor even
  // for the smallest slope (0.2^20 ~ 1e-14), so round-off stays ~1%.
  markov::CouplingResult result = SynchronousCoupling(
      ifs, Vector{0.0}, Vector{1.0}, 20, 1e-300, &random);
  EXPECT_NEAR(result.per_step_rate, slope, 2e-3) << "slope " << slope;
}

INSTANTIATE_TEST_SUITE_P(Slopes, CouplingRateSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 0.95));

}  // namespace
}  // namespace eqimpact
