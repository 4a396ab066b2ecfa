#ifndef EQIMPACT_LINALG_SPARSE_MATRIX_H_
#define EQIMPACT_LINALG_SPARSE_MATRIX_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eqimpact {
namespace runtime {
class ThreadPool;
}  // namespace runtime

namespace linalg {

/// Options for the parallel sparse products.
struct SparseProductOptions {
  /// Worker threads. 1 (the default) runs inline on the calling thread;
  /// 0 = hardware concurrency (runtime::ParallelFor convention).
  size_t num_threads = 1;
  /// Optional caller-owned persistent pool (see runtime::ParallelFor).
  runtime::ThreadPool* pool = nullptr;
  /// Rows per dispatch chunk: a fixed default, never derived from the
  /// thread count. Every output row is owned by one chunk, so results are
  /// bitwise-equal at every chunk size and thread count.
  size_t chunk_size = 4096;
};

/// Compressed-sparse-row real matrix.
///
/// Ulam discretisations of affine IFS are the motivating workload: the
/// image of a cell under an affine map is an interval overlapping O(1)
/// cells, so the transition matrix of an n-cell discretisation has O(n)
/// non-zeros and the dense O(n^2) storage/O(n^3) solves cap the
/// resolution. This type stores only the non-zeros and provides the
/// products iterative eigensolvers need (see sparse_eigen.h) under the
/// library-wide determinism contract: Multiply (y = A x) partitions rows
/// across chunks via runtime::ParallelForChunks; every output element is
/// owned by its row and accumulated sequentially in storage order, so the
/// result is bitwise-identical to the sequential loop at any thread
/// count. A^T x is Transposed().Multiply(x).
class SparseMatrix {
 public:
  /// Accumulates (row, col, value) triplets and assembles the CSR form.
  /// Duplicate coordinates are coalesced by summing in insertion order,
  /// so the assembled entry reproduces, bit for bit, the accumulation a
  /// dense `m(r, c) += v` sequence would have produced.
  class Builder {
   public:
    Builder(size_t rows, size_t cols);

    /// Adds one triplet; duplicates are allowed (summed on Build).
    void Add(size_t row, size_t col, double value);

    /// Assembles the CSR matrix (stable sort by (row, col), then
    /// insertion-order coalescing). The builder is left empty.
    SparseMatrix Build();

   private:
    struct Triplet {
      size_t row = 0;
      size_t col = 0;
      double value = 0.0;
    };
    size_t rows_;
    size_t cols_;
    std::vector<Triplet> triplets_;
  };

  /// Empty 0x0 matrix.
  SparseMatrix() = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nonzeros() const { return values_.size(); }

  /// CSR arrays: row r's entries live at indices
  /// [row_offsets()[r], row_offsets()[r + 1]) of col_indices()/values(),
  /// sorted by column.
  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

  /// Stored value at (r, c), or 0.0 when the entry is not stored
  /// (binary search; for tests and spot checks, not hot loops).
  double At(size_t r, size_t c) const;

  /// Dense copy (for oracles and diagnostics; O(rows * cols) memory).
  Matrix ToDense() const;

  /// Explicit CSR transpose. Within each transposed row the entries are
  /// ordered by increasing original row index (counting sort), so a
  /// gather over a transposed row accumulates contributions in exactly
  /// the order a dense row-major scatter (MultiplyLeft) would.
  SparseMatrix Transposed() const;

  /// y = A x. Bitwise-identical to the sequential row loop at any thread
  /// count (row-owned outputs).
  Vector Multiply(const Vector& x,
                  const SparseProductOptions& options = {}) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_{0};
  std::vector<size_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace linalg
}  // namespace eqimpact

#endif  // EQIMPACT_LINALG_SPARSE_MATRIX_H_
