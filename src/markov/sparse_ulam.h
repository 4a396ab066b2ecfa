#ifndef EQIMPACT_MARKOV_SPARSE_ULAM_H_
#define EQIMPACT_MARKOV_SPARSE_ULAM_H_

#include <cstddef>
#include <optional>

#include "linalg/sparse_eigen.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"
#include "markov/affine_ifs.h"

namespace eqimpact {
namespace runtime {
class ThreadPool;
}  // namespace runtime

namespace markov {

/// Options for building a SparseUlamOperator.
struct SparseUlamOptions {
  /// Threads for the row-parallel build (1 = inline, 0 = hardware). Rows
  /// are independent, so the assembled operator is identical at any
  /// thread count.
  size_t num_threads = 1;
  runtime::ThreadPool* pool = nullptr;
};

/// Sparse Ulam discretisation of a 1-d affine IFS's transfer operator.
///
/// The image of a cell under an affine map is an interval overlapping
/// O(1 + |slope|) cells, so the n-cell Ulam matrix has O(n) non-zeros;
/// storing it in CSR unlocks the 10^5-10^6-cell resolutions the dense
/// `UlamApproximation` cannot reach (its n x n matrix alone is 80 GB at
/// n = 10^5). The construction is *exact*, not approximate: every stored
/// entry is bit-for-bit the value the dense builder produces (per-row
/// contributions are emitted in the dense accumulation order, coalesced by
/// insertion-order summation, and renormalised by the same ascending-column
/// row sum), so the dense path remains a usable oracle at overlapping
/// sizes and nothing downstream can tell the backends apart.
///
/// Mass clamping: mass an affine image carries below `lo` is deposited in
/// cell 0 and mass above `hi` in cell n-1 (see ulam.h), so every row sums
/// to exactly 1 after renormalisation and Propagate conserves total mass.
class SparseUlamOperator {
 public:
  /// Discretises `ifs` (1-d, constant probabilities) on [lo, hi] with
  /// `num_cells` cells. Also materialises the adjoint (transpose) that
  /// Propagate uses; the stationary solver builds its own sliced copy.
  SparseUlamOperator(const AffineIfs& ifs, double lo, double hi,
                     size_t num_cells, const SparseUlamOptions& options = {});

  size_t num_cells() const { return transition_.rows(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double cell_width() const { return cell_width_; }

  /// Midpoint of cell `i`.
  double CellCenter(size_t i) const;

  /// The row-stochastic discretised transfer operator T.
  const linalg::SparseMatrix& transition() const { return transition_; }

  /// T^T with each row's entries in ascending source-cell order — the
  /// order that makes the gather product bitwise-equal to the dense
  /// MultiplyLeft scatter.
  const linalg::SparseMatrix& adjoint() const { return adjoint_; }

  /// nu (P*)^k: pushes a measure over cells through k steps. Bitwise
  /// identical to the dense MarkovChain::Propagate at any thread count.
  linalg::Vector Propagate(const linalg::Vector& cell_measure, unsigned steps,
                           const linalg::SparseProductOptions& product = {})
      const;

  /// Stationary distribution of T by shifted adjoint power iteration,
  /// with the structural uniqueness gate (exactly one terminal class).
  linalg::SparseStationaryResult StationarySolve(
      const linalg::SparseSolverOptions& options = {}) const;

  /// Approximate invariant probability vector over the cells, or nullopt
  /// when it is not unique or the solver did not converge.
  std::optional<linalg::Vector> InvariantCellMeasure(
      const linalg::SparseSolverOptions& options = {}) const;

 private:
  double lo_;
  double hi_;
  double cell_width_;
  linalg::SparseMatrix transition_;
  linalg::SparseMatrix adjoint_;
};

}  // namespace markov
}  // namespace eqimpact

#endif  // EQIMPACT_MARKOV_SPARSE_ULAM_H_
