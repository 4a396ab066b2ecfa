// Unit tests for the Ulam discretisation of the Markov operator — the
// computable form of the paper appendix's P / P* machinery.

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"
#include "markov/affine_ifs.h"
#include "markov/affine_map.h"
#include "markov/empirical_measure.h"
#include "markov/sparse_ulam.h"
#include "markov/ulam.h"
#include "rng/random.h"

namespace eqimpact {
namespace {

using linalg::Vector;
using markov::AffineIfs;
using markov::AffineMap;
using markov::UlamApproximation;

AffineIfs UniformLimitIfs() {
  // w1 = x/2, w2 = x/2 + 1/2, p = (1/2, 1/2): the invariant measure is
  // exactly uniform on [0, 1].
  return AffineIfs(
      {AffineMap::Scalar(0.5, 0.0), AffineMap::Scalar(0.5, 0.5)},
      {0.5, 0.5});
}

TEST(UlamTest, TransitionMatrixIsRowStochastic) {
  UlamApproximation ulam(UniformLimitIfs(), 0.0, 1.0, 32);
  EXPECT_TRUE(ulam.chain().transition().IsRowStochastic(1e-12));
  EXPECT_EQ(ulam.num_cells(), 32u);
}

TEST(UlamTest, CellGeometry) {
  UlamApproximation ulam(UniformLimitIfs(), 0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(ulam.cell_width(), 0.25);
  EXPECT_DOUBLE_EQ(ulam.CellCenter(0), 0.125);
  EXPECT_DOUBLE_EQ(ulam.CellCenter(3), 0.875);
}

TEST(UlamTest, UniformInvariantMeasureIsRecovered) {
  UlamApproximation ulam(UniformLimitIfs(), 0.0, 1.0, 64);
  auto pi = ulam.InvariantCellMeasure();
  ASSERT_TRUE(pi.has_value());
  // Uniform measure: every cell carries 1/64.
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR((*pi)[i], 1.0 / 64.0, 1e-3) << "cell " << i;
  }
}

TEST(UlamTest, InvariantMeanMatchesExactValue) {
  AffineIfs ifs({AffineMap::Scalar(0.5, 0.0), AffineMap::Scalar(0.5, 1.0)},
                {0.5, 0.5});
  // Exact invariant mean is 1 (attractor in [0, 2]).
  UlamApproximation ulam(ifs, 0.0, 2.0, 128);
  auto mean = ulam.InvariantMean();
  ASSERT_TRUE(mean.has_value());
  EXPECT_NEAR(*mean, ifs.InvariantMean()[0], 0.01);
}

TEST(UlamTest, AdjointPropagationConvergesToInvariantMeasure) {
  // (P*)^n nu -> mu for every initial nu: the attractivity statement of
  // the paper's appendix, now a matrix-power computation.
  UlamApproximation ulam(UniformLimitIfs(), 0.0, 1.0, 32);
  auto pi = ulam.InvariantCellMeasure();
  ASSERT_TRUE(pi.has_value());
  // Point mass in the leftmost cell.
  Vector nu(32);
  nu[0] = 1.0;
  Vector propagated = ulam.Propagate(nu, 60);
  EXPECT_LT(markov::TotalVariationDistance(propagated, *pi), 1e-6);
  // And from the rightmost cell.
  Vector nu2(32);
  nu2[31] = 1.0;
  Vector propagated2 = ulam.Propagate(nu2, 60);
  EXPECT_LT(markov::TotalVariationDistance(propagated2, *pi), 1e-6);
}

TEST(UlamTest, AgreesWithChaosGameSimulation) {
  AffineIfs ifs({AffineMap::Scalar(0.4, 0.1), AffineMap::Scalar(0.6, 0.4)},
                {0.3, 0.7});
  UlamApproximation ulam(ifs, 0.0, 1.5, 150);
  auto ulam_mean = ulam.InvariantMean();
  ASSERT_TRUE(ulam_mean.has_value());

  rng::Random random(5);
  markov::EmpiricalMeasure chaos =
      ApproximateInvariantMeasure(ifs, 0.5, 50000, 1000, 1, &random);
  EXPECT_NEAR(*ulam_mean, chaos.Mean(), 0.02);
  EXPECT_NEAR(*ulam_mean, ifs.InvariantMean()[0], 0.02);
}

TEST(UlamTest, MassEscapingTheWindowIsClamped) {
  // A map pushing mass right of the window: rows must stay stochastic
  // with the excess in the last cell.
  AffineIfs ifs({AffineMap::Scalar(0.5, 2.0)}, {1.0});  // Fixed point 4.
  UlamApproximation ulam(ifs, 0.0, 1.0, 8);             // Window misses it.
  EXPECT_TRUE(ulam.chain().transition().IsRowStochastic(1e-12));
  auto pi = ulam.InvariantCellMeasure();
  ASSERT_TRUE(pi.has_value());
  // Everything accumulates in the last cell.
  EXPECT_NEAR((*pi)[7], 1.0, 1e-9);
}

class UlamResolutionSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(UlamResolutionSweep, MeanErrorShrinksWithResolution) {
  const size_t cells = GetParam();
  AffineIfs ifs({AffineMap::Scalar(0.5, 0.0), AffineMap::Scalar(0.5, 1.0)},
                {0.25, 0.75});
  // Exact mean: m = 0.5 m + 0.75 => m = 1.5.
  UlamApproximation ulam(ifs, 0.0, 2.0, cells);
  auto mean = ulam.InvariantMean();
  ASSERT_TRUE(mean.has_value());
  // Coarse grids are allowed a proportionally larger error.
  double budget = 4.0 / static_cast<double>(cells);
  EXPECT_NEAR(*mean, 1.5, budget) << "cells " << cells;
}

INSTANTIATE_TEST_SUITE_P(Resolutions, UlamResolutionSweep,
                         ::testing::Values(8, 16, 32, 64, 128, 256));

// --- Sparse Ulam operator vs the dense oracle. ------------------------------

using markov::SparseUlamOperator;
using markov::SparseUlamOptions;

/// The IFS zoo the sparse-vs-dense comparisons sweep: contractive
/// two-map systems (uniform and biased), a three-map system on a wider
/// window, and the fixed-point-outside-the-window clamping case.
struct UlamCase {
  const char* name;
  AffineIfs ifs;
  double lo;
  double hi;
};

std::vector<UlamCase> UlamCases() {
  return {
      {"uniform_limit", UniformLimitIfs(), 0.0, 1.0},
      {"biased",
       AffineIfs({AffineMap::Scalar(0.5, 0.0), AffineMap::Scalar(0.5, 0.5)},
                 {0.7, 0.3}),
       0.0, 1.0},
      {"three_map",
       AffineIfs({AffineMap::Scalar(0.25, 0.0), AffineMap::Scalar(0.5, 1.0),
                  AffineMap::Scalar(0.3, 0.2)},
                 {0.2, 0.5, 0.3}),
       0.0, 2.0},
      {"clamped",
       AffineIfs({AffineMap::Scalar(0.5, 2.0)}, {1.0}),  // Fixed point 4.
       0.0, 1.0},
  };
}

TEST(SparseUlamTest, MatrixEqualsDenseOracleEntryForEntry) {
  for (const UlamCase& c : UlamCases()) {
    for (size_t cells : {size_t{1}, size_t{7}, size_t{32}, size_t{101}}) {
      UlamApproximation dense(c.ifs, c.lo, c.hi, cells);
      const linalg::Matrix& reference = dense.chain().transition();
      const linalg::SparseMatrix& sparse = dense.sparse().transition();
      size_t dense_nonzeros = 0;
      for (size_t i = 0; i < cells; ++i) {
        for (size_t j = 0; j < cells; ++j) {
          if (reference(i, j) != 0.0) ++dense_nonzeros;
          // Bitwise equality, not NEAR: the sparse build replicates the
          // dense arithmetic operation for operation.
          EXPECT_EQ(sparse.At(i, j), reference(i, j))
              << c.name << " cells=" << cells << " (" << i << ", " << j
              << ")";
        }
      }
      EXPECT_EQ(sparse.nonzeros(), dense_nonzeros)
          << c.name << " cells=" << cells;
    }
  }
}

TEST(SparseUlamTest, PropagateIsBitwiseIdenticalToDenseChain) {
  for (const UlamCase& c : UlamCases()) {
    for (size_t cells : {size_t{7}, size_t{64}, size_t{129}}) {
      UlamApproximation ulam(c.ifs, c.lo, c.hi, cells);
      Vector nu(cells);
      double total = 0.0;
      for (size_t i = 0; i < cells; ++i) {
        nu[i] = static_cast<double>(i % 5 + 1);
        total += nu[i];
      }
      nu /= total;
      for (unsigned steps : {0u, 1u, 3u, 10u}) {
        const Vector dense = ulam.chain().Propagate(nu, steps);
        const Vector sparse = ulam.sparse().Propagate(nu, steps);
        ASSERT_EQ(sparse.size(), dense.size());
        EXPECT_EQ(std::memcmp(sparse.data().data(), dense.data().data(),
                              cells * sizeof(double)),
                  0)
            << c.name << " cells=" << cells << " steps=" << steps;
      }
    }
  }
}

TEST(SparseUlamTest, PropagateIsBitwiseThreadInvariant) {
  const UlamCase c = UlamCases()[1];  // Biased: no symmetry to hide behind.
  const size_t cells = 257;
  SparseUlamOperator op(c.ifs, c.lo, c.hi, cells);
  Vector nu(cells);
  for (size_t i = 0; i < cells; ++i) {
    nu[i] = static_cast<double>(i % 5 + 1);
  }
  nu /= nu.Sum();
  const Vector reference = op.Propagate(nu, 7);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    linalg::SparseProductOptions product;
    product.num_threads = threads;
    product.chunk_size = 16;  // Force multi-chunk dispatch.
    const Vector rerun = op.Propagate(nu, 7, product);
    EXPECT_EQ(std::memcmp(rerun.data().data(), reference.data().data(),
                          cells * sizeof(double)),
              0)
        << threads << " threads";
  }
}

TEST(SparseUlamTest, BuildIsBitwiseThreadInvariant) {
  const UlamCase c = UlamCases()[2];  // Three maps, wide window.
  const size_t cells = 3000;  // Three build chunks of 1024 rows.
  SparseUlamOperator reference(c.ifs, c.lo, c.hi, cells);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SparseUlamOptions options;
    options.num_threads = threads;
    SparseUlamOperator rebuilt(c.ifs, c.lo, c.hi, cells, options);
    EXPECT_EQ(rebuilt.transition().row_offsets(),
              reference.transition().row_offsets());
    EXPECT_EQ(rebuilt.transition().col_indices(),
              reference.transition().col_indices());
    EXPECT_EQ(rebuilt.transition().values(), reference.transition().values());
  }
}

// The satellite contract of the clamping documentation in markov/ulam.h:
// mass escaping the window is deposited in the boundary cells and every
// row renormalises to sum *exactly* 1, so Propagate conserves mass.
TEST(SparseUlamTest, ClampedRowsSumExactlyToOneAndPropagateConservesMass) {
  // Fixed point 4, window [0, 1]: every image w(C_i) = [2 + i*w/2, ...]
  // lies entirely above hi, so all mass clamps into the last cell.
  SparseUlamOperator clamped(AffineIfs({AffineMap::Scalar(0.5, 2.0)}, {1.0}),
                             0.0, 1.0, 16);
  // And a straddling case: maps push mass across both window edges.
  SparseUlamOperator straddling(
      AffineIfs({AffineMap::Scalar(0.8, -0.3), AffineMap::Scalar(0.8, 0.5)},
                {0.5, 0.5}),
      0.0, 1.0, 33);
  for (const SparseUlamOperator* op : {&clamped, &straddling}) {
    const linalg::SparseMatrix& t = op->transition();
    for (size_t r = 0; r < t.rows(); ++r) {
      double row_sum = 0.0;
      for (size_t k = t.row_offsets()[r]; k < t.row_offsets()[r + 1]; ++k) {
        row_sum += t.values()[k];
      }
      EXPECT_EQ(row_sum, 1.0) << "row " << r;
    }
    Vector nu(op->num_cells());
    for (size_t i = 0; i < nu.size(); ++i) {
      nu[i] = static_cast<double>(i % 3 + 1);
    }
    nu /= nu.Sum();
    const Vector pushed = op->Propagate(nu, 25);
    EXPECT_NEAR(pushed.Sum(), 1.0, 1e-12);
    for (size_t i = 0; i < pushed.size(); ++i) {
      EXPECT_GE(pushed[i], 0.0);
    }
  }
  // All clamped mass ends up in the last cell of the first operator.
  auto pi = clamped.InvariantCellMeasure();
  ASSERT_TRUE(pi.has_value());
  EXPECT_NEAR((*pi)[15], 1.0, 1e-9);
}

TEST(SparseUlamTest, InvariantMeasureMatchesDenseStationary) {
  for (const UlamCase& c : UlamCases()) {
    const size_t cells = 64;
    UlamApproximation ulam(c.ifs, c.lo, c.hi, cells);
    auto dense = ulam.chain().StationaryDistribution();
    auto sparse = ulam.sparse().InvariantCellMeasure();
    ASSERT_TRUE(dense.has_value()) << c.name;
    ASSERT_TRUE(sparse.has_value()) << c.name;
    for (size_t i = 0; i < cells; ++i) {
      EXPECT_NEAR((*sparse)[i], (*dense)[i], 1e-9)
          << c.name << " cell " << i;
    }
  }
}

}  // namespace
}  // namespace eqimpact
