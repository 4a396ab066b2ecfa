#include "linalg/sparse_matrix.h"

#include <algorithm>

#include "base/check.h"
#include "runtime/parallel_for.h"

namespace eqimpact {
namespace linalg {
namespace {

runtime::ParallelForOptions ToRuntimeOptions(
    const SparseProductOptions& options) {
  runtime::ParallelForOptions out;
  out.num_threads = options.num_threads;
  out.pool = options.pool;
  return out;
}

}  // namespace

SparseMatrix::Builder::Builder(size_t rows, size_t cols)
    : rows_(rows), cols_(cols) {}

void SparseMatrix::Builder::Add(size_t row, size_t col, double value) {
  EQIMPACT_CHECK_LT(row, rows_);
  EQIMPACT_CHECK_LT(col, cols_);
  triplets_.push_back(Triplet{row, col, value});
}

SparseMatrix SparseMatrix::Builder::Build() {
  // Stable sort keeps duplicates in insertion order, so the coalescing sum
  // below reproduces a dense `m(r, c) += v` sequence bit for bit.
  std::stable_sort(triplets_.begin(), triplets_.end(),
                   [](const Triplet& a, const Triplet& b) {
                     if (a.row != b.row) return a.row < b.row;
                     return a.col < b.col;
                   });

  SparseMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_offsets_.assign(rows_ + 1, 0);
  m.col_indices_.reserve(triplets_.size());
  m.values_.reserve(triplets_.size());
  size_t i = 0;
  for (size_t r = 0; r < rows_; ++r) {
    while (i < triplets_.size() && triplets_[i].row == r) {
      const size_t c = triplets_[i].col;
      double value = triplets_[i].value;
      for (++i; i < triplets_.size() && triplets_[i].row == r &&
                triplets_[i].col == c;
           ++i) {
        value += triplets_[i].value;
      }
      m.col_indices_.push_back(c);
      m.values_.push_back(value);
    }
    m.row_offsets_[r + 1] = m.values_.size();
  }
  triplets_.clear();
  return m;
}

double SparseMatrix::At(size_t r, size_t c) const {
  EQIMPACT_CHECK_LT(r, rows_);
  EQIMPACT_CHECK_LT(c, cols_);
  const auto begin = col_indices_.begin() + row_offsets_[r];
  const auto end = col_indices_.begin() + row_offsets_[r + 1];
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<size_t>(it - col_indices_.begin())];
}

Matrix SparseMatrix::ToDense() const {
  Matrix dense(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      dense(r, col_indices_[k]) = values_[k];
    }
  }
  return dense;
}

SparseMatrix SparseMatrix::Transposed() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_offsets_.assign(cols_ + 1, 0);
  t.col_indices_.resize(values_.size());
  t.values_.resize(values_.size());
  // Counting sort by column: a stable pass in row-major order leaves each
  // transposed row's entries sorted by increasing original row index.
  for (size_t k = 0; k < col_indices_.size(); ++k) {
    ++t.row_offsets_[col_indices_[k] + 1];
  }
  for (size_t c = 0; c < cols_; ++c) {
    t.row_offsets_[c + 1] += t.row_offsets_[c];
  }
  std::vector<size_t> cursor(t.row_offsets_.begin(), t.row_offsets_.end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const size_t slot = cursor[col_indices_[k]]++;
      t.col_indices_[slot] = r;
      t.values_[slot] = values_[k];
    }
  }
  return t;
}

Vector SparseMatrix::Multiply(const Vector& x,
                              const SparseProductOptions& options) const {
  EQIMPACT_CHECK_EQ(x.size(), cols_);
  Vector y(rows_);
  const size_t* cols = col_indices_.data();
  const double* vals = values_.data();
  const double* xv = x.data().data();
  double* yv = y.mutable_data().data();
  runtime::ParallelForChunks(
      rows_, options.chunk_size,
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          double sum = 0.0;
          for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
            sum += vals[k] * xv[cols[k]];
          }
          yv[r] = sum;
        }
      },
      ToRuntimeOptions(options));
  return y;
}

}  // namespace linalg
}  // namespace eqimpact
