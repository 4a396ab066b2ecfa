#ifndef EQIMPACT_LINALG_SPARSE_EIGEN_H_
#define EQIMPACT_LINALG_SPARSE_EIGEN_H_

#include <cstddef>
#include <optional>

#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace eqimpact {
namespace linalg {

/// \file
/// Iterative eigensolvers over CSR matrices. These are the sparse
/// counterparts of linalg/eigen.h: stationary distributions and
/// subdominant moduli of Markov transition matrices are computed with
/// matvec-only Krylov methods, never densifying, so 10^5-10^6-state
/// operators stay O(nnz) in time and memory. All routines are
/// deterministic: fixed start vectors, and every floating-point reduction
/// runs in a thread-count-invariant order (see SparseMatrix).

/// Shared iteration controls for the sparse solvers.
struct SparseSolverOptions {
  /// Iteration cap for the fixed-point loops.
  int max_iterations = 100000;
  /// L1 step-delta convergence threshold.
  double tolerance = 1e-13;
  /// The stationary solver ignores it: its loop runs on the calling
  /// thread. Kept because perfbench's certify replay times the adjoint
  /// matvec, SparseMatrix::Multiply, under the same options.
  SparseProductOptions product;
};

/// True when the support pattern of the square matrix `a` is strongly
/// connected (the chain it describes is irreducible).
bool IsIrreducible(const SparseMatrix& a);

/// Number of terminal (sink) strongly connected components of the support
/// pattern of the square matrix `a`: SCCs with no edge leaving them. For a
/// row-stochastic matrix these are exactly the recurrent classes, and the
/// stationary distribution is unique iff there is exactly one — a strictly
/// weaker requirement than irreducibility (transient states are fine).
size_t TerminalClassCount(const SparseMatrix& a);

/// Result of SparseStationaryDistribution.
struct SparseStationaryResult {
  /// The unique stationary distribution, or nullopt when it is not unique
  /// (more than one recurrent class) or iteration did not converge.
  std::optional<Vector> distribution;
  int iterations = 0;
  bool converged = false;
  /// Structural diagnostics, always filled.
  bool irreducible = false;
  size_t terminal_classes = 0;
};

/// Stationary distribution of the row-stochastic matrix `transition` by
/// shifted (lazy) adjoint power iteration: x <- (x + P^T x) / 2, L1
/// renormalised each step. The shift maps every eigenvalue L of P to
/// (1 + L) / 2, so the fixed point is attractive even for periodic chains
/// (where plain power iteration oscillates), and pi (I + P) / 2 = pi iff
/// pi P = pi. Uniqueness is certified structurally first: unless the
/// support pattern has exactly one terminal class, returns nullopt.
///
/// Each iteration is one pass over a private copy of the adjoint P^T,
/// built once per solve in slices of four rows: the leading entries of a
/// slice's rows sit side by side (int32 columns, so n <= INT32_MAX), and
/// the rest of each row and the last n mod 4 rows are scalar tails. The
/// pass writes iterate k + 1 row by row, next[r] = (x[r] + sum_k
/// (P^T)[r][k] x[k]) / 2, each row adding its entries in CSR order from
/// +0.0 and then itself to the running sum of next, in row order. Ahead
/// of the rows, by each row's highest column read (a prefix maximum), the
/// same pass divides iterate k by its sum and adds the step's L1 delta,
/// in index order. Two buffers swap roles, so the solver allocates
/// nothing inside the loop, and the row pass computed after the
/// converged iterate is discarded. With base::UseAvx2Lanes() the rows of
/// a slice run one per lane of an AVX2 register; otherwise a scalar lane
/// runs the same slices with four accumulators. Both perform the same
/// floating-point operations in the same order as the plain CSR loop (row
/// pass, sum, divide-and-delta), so every path gives the same bits. The
/// loop is sum/divide-only (no libm), so converged iterates are
/// bit-reproducible across machines.
SparseStationaryResult SparseStationaryDistribution(
    const SparseMatrix& transition, const SparseSolverOptions& options = {});

/// Controls for SparseSubdominantModulus.
struct SubdominantOptions {
  /// Krylov subspace dimension (capped at the matrix size).
  size_t subspace = 32;
  /// Threading/chunking for the matvecs.
  SparseProductOptions product;
};

/// Result of SparseSubdominantModulus.
struct SubdominantResult {
  /// |lambda_2|: modulus of the largest eigenvalue after the Perron root.
  double modulus = 1.0;
  /// 1 - |lambda_2| (clamped at 0).
  double spectral_gap = 0.0;
  /// Arnoldi steps actually taken (early breakdown truncates).
  size_t subspace_used = 0;
  bool valid = false;
};

/// Subdominant eigenvalue modulus |lambda_2| of the row-stochastic matrix
/// `transition` with stationary distribution `stationary`, via Arnoldi on
/// the deflated adjoint B x = P^T x - pi (1^T x). Deflation annihilates the
/// Perron eigenvalue 1 (left and right spectra coincide, and every other
/// eigenvector of P^T keeps its eigenvalue under B), so the spectral radius
/// of the projected dense Hessenberg — evaluated with linalg::SpectralRadius,
/// which handles complex pairs — approximates |lambda_2| directly.
SubdominantResult SparseSubdominantModulus(
    const SparseMatrix& transition, const Vector& stationary,
    const SubdominantOptions& options = {});

}  // namespace linalg
}  // namespace eqimpact

#endif  // EQIMPACT_LINALG_SPARSE_EIGEN_H_
