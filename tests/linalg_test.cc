// Unit tests for the linalg module: vectors, matrices, factorisations,
// the eigen/stationary-distribution solvers, and the CSR sparse engine.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "base/check.h"
#include "base/fnv1a.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "linalg/sparse_eigen.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"
#include "markov/affine_ifs.h"
#include "markov/affine_map.h"
#include "markov/sparse_ulam.h"
#include "rng/random.h"

namespace eqimpact {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(VectorTest, ConstructionAndAccess) {
  Vector v(3);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  v[1] = 2.5;
  EXPECT_DOUBLE_EQ(v[1], 2.5);
}

TEST(VectorTest, BracedInitialization) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(VectorTest, Arithmetic) {
  Vector a{1.0, 2.0};
  Vector b{3.0, -1.0};
  Vector sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 4.0);
  EXPECT_DOUBLE_EQ(sum[1], 1.0);
  Vector diff = a - b;
  EXPECT_DOUBLE_EQ(diff[0], -2.0);
  Vector scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled[1], 4.0);
}

TEST(VectorTest, NormsAndReductions) {
  Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.Norm2(), 5.0);
  EXPECT_DOUBLE_EQ(v.NormInf(), 4.0);
  EXPECT_DOUBLE_EQ(v.Sum(), -1.0);
}

TEST(VectorTest, DotProduct) {
  EXPECT_DOUBLE_EQ(Dot(Vector{1.0, 2.0, 3.0}, Vector{4.0, 5.0, 6.0}), 32.0);
}

TEST(VectorTest, MaxAbsDiffAndAllClose) {
  Vector a{1.0, 2.0};
  Vector b{1.1, 1.8};
  EXPECT_NEAR(MaxAbsDiff(a, b), 0.2, 1e-12);
  EXPECT_TRUE(AllClose(a, b, 0.21));
  EXPECT_FALSE(AllClose(a, b, 0.19));
  EXPECT_FALSE(AllClose(a, Vector{1.0}, 1.0));
}

TEST(VectorTest, ToStringRendersEntries) {
  EXPECT_EQ((Vector{1.0, 2.5}).ToString(), "[1, 2.5]");
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
}

TEST(MatrixTest, NestedBracedInitialization) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  Matrix eye = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(eye(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
  Matrix diag = Matrix::Diagonal(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(diag(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(diag(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(diag(0, 1), 0.0);
}

TEST(MatrixTest, ColumnExtraction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.Col(0)[1], 3.0);
}

TEST(MatrixTest, Product) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Vector x{1.0, 1.0};
  Vector y = a * x;
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(MatrixTest, LeftMultiplication) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Vector v{1.0, 2.0};
  Vector y = MultiplyLeft(v, a);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
}

TEST(MatrixTest, Transpose) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, RowStochasticCheck) {
  Matrix good{{0.5, 0.5}, {0.1, 0.9}};
  EXPECT_TRUE(good.IsRowStochastic());
  Matrix bad_sum{{0.5, 0.6}, {0.1, 0.9}};
  EXPECT_FALSE(bad_sum.IsRowStochastic());
  Matrix negative{{1.5, -0.5}, {0.1, 0.9}};
  EXPECT_FALSE(negative.IsRowStochastic());
}

TEST(LuTest, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  std::optional<Vector> x = Solve(a, Vector{3.0, 5.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 0.8, 1e-12);
  EXPECT_NEAR((*x)[1], 1.4, 1e-12);
}

TEST(LuTest, DetectsSingularMatrix) {
  Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_FALSE(Solve(singular, Vector{1.0, 2.0}).has_value());
  linalg::LuDecomposition lu(singular);
  EXPECT_FALSE(lu.ok());
}

TEST(LuTest, SolvesThroughARowSwap) {
  // The first pivot is zero, so the factorisation must swap the rows.
  Matrix p{{0.0, 1.0}, {1.0, 0.0}};
  linalg::LuDecomposition lu(p);
  ASSERT_TRUE(lu.ok());
  std::optional<Vector> x = lu.Solve(Vector{2.0, 3.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_DOUBLE_EQ((*x)[0], 3.0);
  EXPECT_DOUBLE_EQ((*x)[1], 2.0);
}

TEST(SpdTest, CholeskySolveMatchesLu) {
  Matrix a{{4.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 2.0}};
  Vector b{1.0, 2.0, 3.0};
  std::optional<Vector> chol = SolveSpd(a, b);
  std::optional<Vector> lu = Solve(a, b);
  ASSERT_TRUE(chol.has_value());
  ASSERT_TRUE(lu.has_value());
  EXPECT_TRUE(AllClose(*chol, *lu, 1e-10));
}

TEST(SpdTest, RejectsIndefiniteMatrix) {
  Matrix indefinite{{1.0, 2.0}, {2.0, 1.0}};  // Eigenvalues 3 and -1.
  EXPECT_FALSE(SolveSpd(indefinite, Vector{1.0, 1.0}).has_value());
}

TEST(SpectralRadiusTest, NegativeDominantEigenvalue) {
  Matrix a = Matrix::Diagonal(Vector{-2.0, 1.0});
  EXPECT_NEAR(linalg::SpectralRadius(a), 2.0, 1e-8);
}

TEST(SpectralRadiusTest, ZeroMatrix) {
  Matrix a(2, 2);
  EXPECT_NEAR(linalg::SpectralRadius(a), 0.0, 1e-12);
}

TEST(SpectralRadiusTest, RotationLikeMatrixStaysBounded) {
  // Schur-stable matrix: spectral radius below 1 even though entries are
  // not small.
  Matrix a{{0.5, 0.4}, {-0.4, 0.5}};
  double rho = linalg::SpectralRadius(a);
  EXPECT_LT(rho, 1.0);
  EXPECT_GT(rho, 0.5);
}

TEST(StationaryTest, TwoStateChainClosedForm) {
  // P = [[1-a, a], [b, 1-b]] has stationary [b/(a+b), a/(a+b)].
  double alpha = 0.3, beta = 0.1;
  Matrix p{{1.0 - alpha, alpha}, {beta, 1.0 - beta}};
  std::optional<Vector> pi = linalg::StationaryDistribution(p);
  ASSERT_TRUE(pi.has_value());
  EXPECT_NEAR((*pi)[0], beta / (alpha + beta), 1e-12);
  EXPECT_NEAR((*pi)[1], alpha / (alpha + beta), 1e-12);
}

TEST(StationaryTest, WorksForPeriodicChain) {
  // The two-cycle is periodic: power iteration of distributions would
  // oscillate, but the direct solve must return [0.5, 0.5].
  Matrix p{{0.0, 1.0}, {1.0, 0.0}};
  std::optional<Vector> pi = linalg::StationaryDistribution(p);
  ASSERT_TRUE(pi.has_value());
  EXPECT_NEAR((*pi)[0], 0.5, 1e-12);
}

// --- Parameterized property sweeps ----------------------------------------

class RandomSolveSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(RandomSolveSweep, LuSolvesRandomDiagonallyDominantSystems) {
  const size_t n = GetParam();
  rng::Random random(5000 + n);
  Matrix a(n, n);
  Vector x_true(n);
  for (size_t r = 0; r < n; ++r) {
    double off_sum = 0.0;
    for (size_t c = 0; c < n; ++c) {
      if (r == c) continue;
      a(r, c) = random.UniformDouble(-1.0, 1.0);
      off_sum += std::fabs(a(r, c));
    }
    a(r, r) = off_sum + 1.0;  // Strict diagonal dominance: non-singular.
    x_true[r] = random.UniformDouble(-5.0, 5.0);
  }
  Vector b = a * x_true;
  std::optional<Vector> x = Solve(a, b);
  ASSERT_TRUE(x.has_value()) << "n=" << n;
  EXPECT_TRUE(AllClose(*x, x_true, 1e-8)) << "n=" << n;
}

TEST_P(RandomSolveSweep, StationaryDistributionIsInvariant) {
  const size_t n = GetParam();
  rng::Random random(6000 + n);
  Matrix p(n, n);
  for (size_t r = 0; r < n; ++r) {
    double total = 0.0;
    for (size_t c = 0; c < n; ++c) {
      p(r, c) = random.UniformDouble(0.05, 1.0);  // Strictly positive.
      total += p(r, c);
    }
    for (size_t c = 0; c < n; ++c) p(r, c) /= total;
  }
  std::optional<Vector> pi = linalg::StationaryDistribution(p);
  ASSERT_TRUE(pi.has_value()) << "n=" << n;
  EXPECT_NEAR(pi->Sum(), 1.0, 1e-10);
  EXPECT_TRUE(AllClose(MultiplyLeft(*pi, p), *pi, 1e-10)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Dimensions, RandomSolveSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

// --- Sparse CSR matrix. -----------------------------------------------------

using linalg::SparseMatrix;
using linalg::SparseProductOptions;

/// Bitwise vector equality: the determinism contract is stated at the bit
/// level, so -0.0 vs +0.0 or a reordered sum must fail, not pass.
bool BitwiseEqual(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

TEST(SparseMatrixTest, BuilderCoalescesDuplicatesInInsertionOrder) {
  SparseMatrix::Builder builder(2, 3);
  builder.Add(1, 2, 0.1);
  builder.Add(0, 0, 1.0);
  builder.Add(1, 2, 0.2);
  builder.Add(1, 2, 0.3);
  SparseMatrix m = builder.Build();
  EXPECT_EQ(m.nonzeros(), 2u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  // Coalescing must reproduce the dense accumulation order bit for bit.
  double reference = 0.1;
  reference += 0.2;
  reference += 0.3;
  EXPECT_EQ(m.At(1, 2), reference);
}

TEST(SparseMatrixTest, EmptyRowsDenseRowsAndNonSquare) {
  // 4x3: row 0 dense, row 1 empty, row 2 single entry, row 3 empty.
  SparseMatrix::Builder builder(4, 3);
  builder.Add(0, 0, 1.0);
  builder.Add(0, 1, 2.0);
  builder.Add(0, 2, 3.0);
  builder.Add(2, 1, -4.0);
  SparseMatrix m = builder.Build();
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nonzeros(), 4u);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(3, 0), 0.0);
  Matrix dense = m.ToDense();
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m.At(r, c), dense(r, c));
  }
  Vector y = m.Multiply(Vector{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], -4.0);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

TEST(SparseMatrixTest, OneByOneAndAllEmpty) {
  SparseMatrix::Builder builder(1, 1);
  builder.Add(0, 0, 2.5);
  SparseMatrix m = builder.Build();
  EXPECT_DOUBLE_EQ(m.Multiply(Vector{2.0})[0], 5.0);
  SparseMatrix empty = SparseMatrix::Builder(3, 3).Build();
  EXPECT_EQ(empty.nonzeros(), 0u);
  Vector zero = empty.Multiply(Vector{1.0, 2.0, 3.0});
  for (size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(zero[i], 0.0);
}

TEST(SparseMatrixTest, TransposedRoundTrip) {
  rng::Random random(7);
  SparseMatrix::Builder builder(5, 3);
  for (int k = 0; k < 8; ++k) {
    builder.Add(random.UniformInt(5), random.UniformInt(3),
                random.UniformDouble(-1.0, 1.0));
  }
  SparseMatrix m = builder.Build();
  SparseMatrix round_trip = m.Transposed().Transposed();
  EXPECT_EQ(round_trip.rows(), m.rows());
  EXPECT_EQ(round_trip.cols(), m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(round_trip.At(r, c), m.At(r, c));
    }
  }
}

/// A random rectangular CSR matrix with deliberately adversarial
/// structure: one dense row, empty rows, and duplicate insertions.
SparseMatrix AdversarialMatrix(size_t rows, size_t cols, uint64_t seed) {
  rng::Random random(seed);
  SparseMatrix::Builder builder(rows, cols);
  for (size_t c = 0; c < cols; ++c) {
    builder.Add(0, c, random.UniformDouble(-1.0, 1.0));
  }
  for (size_t k = 0; k < rows * 2; ++k) {
    // Skip row 1 (kept empty) — and bias collisions so coalescing runs.
    size_t r = 2 + random.UniformInt(rows - 2);
    builder.Add(r, random.UniformInt(cols), random.UniformDouble(-1.0, 1.0));
  }
  return builder.Build();
}

TEST(SparseMatrixTest, MultiplyMatchesDenseIncludingSkippedZeros) {
  SparseMatrix m = AdversarialMatrix(17, 9, 3);
  rng::Random random(11);
  Vector x(9);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = random.UniformDouble(-2.0, 2.0);
  }
  Matrix dense = m.ToDense();
  Vector y = m.Multiply(x);
  // The dense reference accumulates every column, explicit zeros
  // included; CSR skips them. The two must agree exactly (skipping a
  // zero term never changes a partial sum here — see SparseMatrix).
  for (size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < m.cols(); ++c) sum += dense(r, c) * x[c];
    EXPECT_EQ(y[r], sum) << "row " << r;
  }
}

TEST(SparseMatrixTest, MultiplyIsBitwiseThreadAndChunkInvariant) {
  SparseMatrix m = AdversarialMatrix(64, 33, 5);
  rng::Random random(13);
  Vector x(33);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = random.UniformDouble(-3.0, 3.0);
  }
  const Vector reference = m.Multiply(x);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{4096}}) {
      SparseProductOptions options;
      options.num_threads = threads;
      options.chunk_size = chunk;
      EXPECT_TRUE(BitwiseEqual(m.Multiply(x, options), reference))
          << threads << " threads, chunk " << chunk;
    }
  }
}

// --- Sparse eigensolvers. ---------------------------------------------------

SparseMatrix FromDense(const Matrix& dense) {
  SparseMatrix::Builder builder(dense.rows(), dense.cols());
  for (size_t r = 0; r < dense.rows(); ++r) {
    for (size_t c = 0; c < dense.cols(); ++c) {
      if (dense(r, c) != 0.0) builder.Add(r, c, dense(r, c));
    }
  }
  return builder.Build();
}

TEST(SparseEigenTest, StationaryMatchesDenseOnRandomChain) {
  rng::Random random(23);
  const size_t n = 12;
  Matrix p(n, n);
  for (size_t r = 0; r < n; ++r) {
    double total = 0.0;
    for (size_t c = 0; c < n; ++c) {
      p(r, c) = random.UniformDouble(0.05, 1.0);
      total += p(r, c);
    }
    for (size_t c = 0; c < n; ++c) p(r, c) /= total;
  }
  std::optional<Vector> dense = linalg::StationaryDistribution(p);
  linalg::SparseStationaryResult sparse =
      linalg::SparseStationaryDistribution(FromDense(p));
  ASSERT_TRUE(dense.has_value());
  ASSERT_TRUE(sparse.converged);
  ASSERT_TRUE(sparse.distribution.has_value());
  EXPECT_TRUE(sparse.irreducible);
  EXPECT_EQ(sparse.terminal_classes, 1u);
  EXPECT_NEAR(sparse.distribution->Sum(), 1.0, 1e-12);
  EXPECT_TRUE(AllClose(*sparse.distribution, *dense, 1e-9));
}

TEST(SparseEigenTest, PeriodicChainConvergesViaLazyShift) {
  // The 2-cycle has eigenvalues {1, -1}; plain power iteration on P^T
  // oscillates forever, the lazy shift (1 + L) / 2 kills the -1 branch.
  Matrix p{{0.0, 1.0}, {1.0, 0.0}};
  linalg::SparseStationaryResult result =
      linalg::SparseStationaryDistribution(FromDense(p));
  ASSERT_TRUE(result.converged);
  ASSERT_TRUE(result.distribution.has_value());
  EXPECT_NEAR((*result.distribution)[0], 0.5, 1e-12);
  EXPECT_NEAR((*result.distribution)[1], 0.5, 1e-12);
}

TEST(SparseEigenTest, TwoSinkReducibleChainHasNoUniqueStationary) {
  // Two disconnected 2-cycles: two terminal classes, no unique pi.
  Matrix p{{0.0, 1.0, 0.0, 0.0},
           {1.0, 0.0, 0.0, 0.0},
           {0.0, 0.0, 0.0, 1.0},
           {0.0, 0.0, 1.0, 0.0}};
  linalg::SparseStationaryResult result =
      linalg::SparseStationaryDistribution(FromDense(p));
  EXPECT_FALSE(result.irreducible);
  EXPECT_EQ(result.terminal_classes, 2u);
  EXPECT_FALSE(result.distribution.has_value());
}

TEST(SparseEigenTest, TransientStatesWithSingleSinkStillSolve) {
  // State 0 is transient (drains into the 1<->2 cycle): reducible, but
  // with exactly one terminal class the stationary measure is unique —
  // the structural gate must accept it, not demand irreducibility.
  Matrix p{{0.5, 0.5, 0.0}, {0.0, 0.0, 1.0}, {0.0, 1.0, 0.0}};
  linalg::SparseStationaryResult result =
      linalg::SparseStationaryDistribution(FromDense(p));
  EXPECT_FALSE(result.irreducible);
  EXPECT_EQ(result.terminal_classes, 1u);
  ASSERT_TRUE(result.converged);
  ASSERT_TRUE(result.distribution.has_value());
  EXPECT_NEAR((*result.distribution)[0], 0.0, 1e-12);
  EXPECT_NEAR((*result.distribution)[1], 0.5, 1e-9);
  EXPECT_NEAR((*result.distribution)[2], 0.5, 1e-9);
}

TEST(SparseEigenTest, SubdominantModulusOfTwoStateChainIsExact) {
  // P = [[1-a, a], [b, 1-b]] has eigenvalues 1 and 1 - a - b.
  const double a = 0.3;
  const double b = 0.2;
  Matrix p{{1.0 - a, a}, {b, 1.0 - b}};
  linalg::SparseStationaryResult pi =
      linalg::SparseStationaryDistribution(FromDense(p));
  ASSERT_TRUE(pi.distribution.has_value());
  linalg::SubdominantResult spectrum =
      linalg::SparseSubdominantModulus(FromDense(p), *pi.distribution);
  EXPECT_TRUE(spectrum.valid);
  EXPECT_NEAR(spectrum.modulus, 1.0 - a - b, 1e-9);
  EXPECT_NEAR(spectrum.spectral_gap, a + b, 1e-9);
}

// --- Reference solvers. -----------------------------------------------------
//
// SparseStationaryDistribution and SparseSubdominantModulus as they ran
// over linalg::Vector, before their loops moved onto raw buffers: kept
// verbatim (the structural gate goes through the public IsIrreducible and
// TerminalClassCount) as bitwise oracles. The raw-buffer loops keep the
// same arithmetic in the same order, so every result bit must agree.

linalg::SparseStationaryResult ReferenceStationaryDistribution(
    const SparseMatrix& transition,
    const linalg::SparseSolverOptions& options) {
  EQIMPACT_CHECK_EQ(transition.rows(), transition.cols());
  EQIMPACT_CHECK_GT(transition.rows(), 0u);
  const size_t n = transition.rows();

  linalg::SparseStationaryResult result;
  result.irreducible = linalg::IsIrreducible(transition);
  result.terminal_classes = linalg::TerminalClassCount(transition);
  if (result.terminal_classes != 1) return result;

  const SparseMatrix adjoint = transition.Transposed();
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = 1.0 / static_cast<double>(n);
  for (int it = 0; it < options.max_iterations; ++it) {
    Vector next = adjoint.Multiply(x, options.product);
    // Lazy shift: x' = (x + P^T x) / 2 keeps periodic chains convergent.
    for (size_t i = 0; i < n; ++i) next[i] = 0.5 * (x[i] + next[i]);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += next[i];
    EQIMPACT_CHECK_GT(sum, 0.0);
    for (size_t i = 0; i < n; ++i) next[i] /= sum;
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) delta += std::fabs(next[i] - x[i]);
    x = next;
    result.iterations = it + 1;
    if (delta <= options.tolerance) {
      result.converged = true;
      result.distribution = std::move(x);
      return result;
    }
  }
  return result;
}

linalg::SubdominantResult ReferenceSubdominantModulus(
    const SparseMatrix& transition, const Vector& stationary,
    const linalg::SubdominantOptions& options) {
  EQIMPACT_CHECK_EQ(transition.rows(), transition.cols());
  EQIMPACT_CHECK_EQ(stationary.size(), transition.rows());
  const size_t n = transition.rows();

  linalg::SubdominantResult result;
  if (n <= 1) {
    // A one-state chain has no subdominant mode: gap 1 by convention.
    result.modulus = 0.0;
    result.spectral_gap = 1.0;
    result.valid = true;
    return result;
  }

  const SparseMatrix adjoint = transition.Transposed();
  // Deflated adjoint: B x = P^T x - pi (1^T x).
  const auto apply_deflated = [&](const Vector& v) {
    Vector out = adjoint.Multiply(v, options.product);
    double mass = 0.0;
    for (size_t i = 0; i < n; ++i) mass += v[i];
    for (size_t i = 0; i < n; ++i) out[i] -= stationary[i] * mass;
    return out;
  };

  const size_t m = std::min(options.subspace, n);
  std::vector<Vector> q;
  q.reserve(m + 1);
  Matrix h(m + 1, m);

  {
    Vector u(n);
    uint64_t state = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < n; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      u[i] = 0.5 + static_cast<double>(state >> 11) * 0x1.0p-53;
    }
    const double norm = u.Norm2();
    EQIMPACT_CHECK_GT(norm, 0.0);
    u /= norm;
    q.push_back(std::move(u));
  }

  size_t steps = 0;
  for (size_t j = 0; j < m; ++j) {
    Vector w = apply_deflated(q[j]);
    // Modified Gram-Schmidt.
    for (size_t i = 0; i <= j; ++i) {
      const double hij = Dot(q[i], w);
      h(i, j) = hij;
      for (size_t t = 0; t < n; ++t) w[t] -= hij * q[i][t];
    }
    steps = j + 1;
    const double norm = w.Norm2();
    h(j + 1, j) = norm;
    if (norm <= 1e-12) break;  // invariant subspace found: exact projection
    w /= norm;
    q.push_back(std::move(w));
  }

  result.subspace_used = steps;
  if (steps == 0) {
    result.modulus = 0.0;
  } else {
    Matrix hm(steps, steps);
    for (size_t i = 0; i < steps; ++i) {
      for (size_t j = 0; j < steps; ++j) hm(i, j) = h(i, j);
    }
    result.modulus = std::max(0.0, linalg::SpectralRadius(hm));
  }
  result.spectral_gap = std::max(0.0, 1.0 - result.modulus);
  result.valid = true;
  return result;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Runs both solvers and both references on `transition` under `product`
/// and checks every result field bit for bit. The Arnoldi pass takes the
/// stationary distribution, or the uniform vector when there is none, so
/// a reducible chain still drives the deflated loop. Returns the reference
/// stationary result, for the caller to check the case is the one meant.
linalg::SparseStationaryResult ExpectMatchesReference(
    const SparseMatrix& transition, const SparseProductOptions& product) {
  linalg::SparseSolverOptions solver;
  solver.product = product;
  const linalg::SparseStationaryResult expected =
      ReferenceStationaryDistribution(transition, solver);
  const linalg::SparseStationaryResult actual =
      linalg::SparseStationaryDistribution(transition, solver);
  EXPECT_EQ(actual.iterations, expected.iterations);
  EXPECT_EQ(actual.converged, expected.converged);
  EXPECT_EQ(actual.irreducible, expected.irreducible);
  EXPECT_EQ(actual.terminal_classes, expected.terminal_classes);
  EXPECT_EQ(actual.distribution.has_value(),
            expected.distribution.has_value());
  const size_t n = transition.rows();
  Vector stationary(n, 1.0 / static_cast<double>(n));
  if (expected.distribution) {
    EXPECT_TRUE(actual.distribution &&
                BitwiseEqual(*actual.distribution, *expected.distribution));
    stationary = *expected.distribution;
  }

  linalg::SubdominantOptions arnoldi;
  arnoldi.product = product;
  const linalg::SubdominantResult expected_spectrum =
      ReferenceSubdominantModulus(transition, stationary, arnoldi);
  const linalg::SubdominantResult actual_spectrum =
      linalg::SparseSubdominantModulus(transition, stationary, arnoldi);
  EXPECT_TRUE(SameBits(actual_spectrum.modulus, expected_spectrum.modulus))
      << actual_spectrum.modulus << " vs " << expected_spectrum.modulus;
  EXPECT_TRUE(
      SameBits(actual_spectrum.spectral_gap, expected_spectrum.spectral_gap));
  EXPECT_EQ(actual_spectrum.subspace_used, expected_spectrum.subspace_used);
  EXPECT_EQ(actual_spectrum.valid, expected_spectrum.valid);
  return expected;
}

TEST(SparseEigenTest, StationarySolveIsBitwiseThreadInvariant) {
  rng::Random random(31);
  const size_t n = 40;
  Matrix p(n, n);
  for (size_t r = 0; r < n; ++r) {
    double total = 0.0;
    for (size_t c = 0; c < n; ++c) {
      p(r, c) = random.UniformDouble(0.01, 1.0);
      total += p(r, c);
    }
    for (size_t c = 0; c < n; ++c) p(r, c) /= total;
  }
  SparseMatrix sparse = FromDense(p);
  linalg::SparseSolverOptions options;
  options.product.chunk_size = 8;  // Force multi-chunk dispatch.
  linalg::SparseStationaryResult reference =
      linalg::SparseStationaryDistribution(sparse, options);
  ASSERT_TRUE(reference.distribution.has_value());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    options.product.num_threads = threads;
    linalg::SparseStationaryResult rerun =
        linalg::SparseStationaryDistribution(sparse, options);
    ASSERT_TRUE(rerun.distribution.has_value());
    EXPECT_EQ(rerun.iterations, reference.iterations);
    EXPECT_TRUE(BitwiseEqual(*rerun.distribution, *reference.distribution));
    ExpectMatchesReference(sparse, options.product);
  }
}

TEST(SparseEigenTest, RawLoopsMatchReferenceWhenChunksDoNotDivideRows) {
  // 1,000 states in chunks of 64 (15 full chunks and one of 40) on 3
  // threads. Each state steps to its ring successor, which keeps the
  // chain irreducible, and to three random states.
  const size_t n = 1000;
  rng::Random random(37);
  SparseMatrix::Builder builder(n, n);
  for (size_t r = 0; r < n; ++r) {
    size_t targets[4] = {(r + 1) % n, 0, 0, 0};
    double weights[4];
    double total = 0.0;
    for (size_t k = 0; k < 4; ++k) {
      if (k > 0) targets[k] = random.UniformInt(n);
      weights[k] = random.UniformDouble(0.05, 1.0);
      total += weights[k];
    }
    for (size_t k = 0; k < 4; ++k) {
      builder.Add(r, targets[k], weights[k] / total);
    }
  }
  SparseProductOptions product;
  product.chunk_size = 64;
  product.num_threads = 3;
  EXPECT_TRUE(ExpectMatchesReference(builder.Build(), product).converged);
}

TEST(SparseEigenTest, RawLoopsMatchReferenceOnPeriodicAndTwoSinkChains) {
  {
    SCOPED_TRACE("periodic");
    const Matrix cycle{{0.0, 1.0}, {1.0, 0.0}};
    EXPECT_TRUE(ExpectMatchesReference(FromDense(cycle), {}).converged);
  }
  SCOPED_TRACE("two sinks");
  const Matrix sinks{{0.0, 1.0, 0.0, 0.0},
                     {1.0, 0.0, 0.0, 0.0},
                     {0.0, 0.0, 0.0, 1.0},
                     {0.0, 0.0, 1.0, 0.0}};
  EXPECT_EQ(ExpectMatchesReference(FromDense(sinks), {}).terminal_classes,
            2u);
}

TEST(SparseEigenTest, RawLoopsMatchReferenceOnCreditSurrogate) {
  // The credit scenario's default surrogate at 2,000 Ulam cells, as the
  // certificate benchmark solves it: the EWMA x' = (1 - a) x + a Bern(0.4)
  // with a = 1/19, one weight per year of the 2002-2020 horizon.
  const double a = 1.0 / 19.0;
  const markov::AffineIfs ifs({markov::AffineMap::Scalar(1.0 - a, a),
                               markov::AffineMap::Scalar(1.0 - a, 0.0)},
                              {0.4, 0.6});
  const markov::SparseUlamOperator op(ifs, 0.0, 1.0, 2000);
  const linalg::SparseStationaryResult reference =
      ExpectMatchesReference(op.transition(), {});
  ASSERT_TRUE(reference.converged);
  EXPECT_EQ(reference.iterations, 987);
  // The measure the certificate benchmark pins for the credit scenario.
  base::Fnv1a measure;
  measure.MixSeries(reference.distribution->data());
  EXPECT_EQ(measure.hash(), 0x409d3d530380ad94ULL);
}

}  // namespace
}  // namespace eqimpact
