#include "markov/sparse_ulam.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/check.h"
#include "runtime/parallel_for.h"

namespace eqimpact {
namespace markov {
namespace {

// Rows of the build fan out in chunks of this many cells; row slots are
// index-owned, so the chunking affects scheduling only, never values.
constexpr size_t kBuildChunkRows = 1024;

// One row of the Ulam matrix, replicating the dense builder's arithmetic
// exactly: contributions are emitted in the dense accumulation order
// (maps in index order; within a map: degenerate spike, below-clamp into
// cell 0, above-clamp into cell n-1, then interior overlaps in ascending
// column order), coalesced per column by insertion-order summation — the
// bit-exact equivalent of dense `t(i, j) += v` — and renormalised by the
// ascending-column row sum. Positive contributions can never cancel, so
// the stored pattern equals the dense non-zero pattern.
void BuildUlamRow(const AffineIfs& ifs, double lo, double hi, double width,
                  size_t num_cells, size_t i,
                  std::vector<std::pair<size_t, double>>* scratch,
                  std::vector<std::pair<size_t, double>>* entries) {
  scratch->clear();
  entries->clear();
  const double cell_lo = lo + static_cast<double>(i) * width;
  const double cell_hi = cell_lo + width;
  for (size_t e = 0; e < ifs.num_maps(); ++e) {
    const double p = ifs.probability(e);
    if (p <= 0.0) continue;
    const double slope = ifs.map(e).a()(0, 0);
    const double offset = ifs.map(e).b()[0];
    double image_lo = slope * cell_lo + offset;
    double image_hi = slope * cell_hi + offset;
    if (image_lo > image_hi) std::swap(image_lo, image_hi);

    if (image_hi <= image_lo) {
      double x = std::clamp(image_lo, lo, hi);
      size_t j =
          std::min(static_cast<size_t>((x - lo) / width), num_cells - 1);
      scratch->emplace_back(j, p);
      continue;
    }
    const double image_length = image_hi - image_lo;
    double below = std::max(0.0, std::min(image_hi, lo) - image_lo);
    if (below > 0.0) scratch->emplace_back(0, p * below / image_length);
    double above = std::max(0.0, image_hi - std::max(image_lo, hi));
    if (above > 0.0) {
      scratch->emplace_back(num_cells - 1, p * above / image_length);
    }

    double clipped_lo = std::max(image_lo, lo);
    double clipped_hi = std::min(image_hi, hi);
    if (clipped_lo < clipped_hi) {
      size_t first = std::min(static_cast<size_t>((clipped_lo - lo) / width),
                              num_cells - 1);
      size_t last = std::min(static_cast<size_t>((clipped_hi - lo) / width),
                             num_cells - 1);
      for (size_t j = first; j <= last; ++j) {
        double overlap_lo =
            std::max(clipped_lo, lo + static_cast<double>(j) * width);
        double overlap_hi =
            std::min(clipped_hi, lo + static_cast<double>(j + 1) * width);
        double overlap = std::max(0.0, overlap_hi - overlap_lo);
        if (overlap > 0.0) {
          scratch->emplace_back(j, p * overlap / image_length);
        }
      }
    }
  }
  // Coalesce duplicates in insertion order per column (stable sort), then
  // renormalise by the ascending-column sum — the dense row sum minus its
  // exact +0.0 terms.
  std::stable_sort(scratch->begin(), scratch->end(),
                   [](const std::pair<size_t, double>& a,
                      const std::pair<size_t, double>& b) {
                     return a.first < b.first;
                   });
  size_t k = 0;
  while (k < scratch->size()) {
    const size_t col = (*scratch)[k].first;
    double value = (*scratch)[k].second;
    for (++k; k < scratch->size() && (*scratch)[k].first == col; ++k) {
      value += (*scratch)[k].second;
    }
    entries->emplace_back(col, value);
  }
  double row_sum = 0.0;
  for (const auto& entry : *entries) row_sum += entry.second;
  EQIMPACT_CHECK_GT(row_sum, 0.0);
  for (auto& entry : *entries) entry.second /= row_sum;
}

linalg::SparseMatrix BuildSparseUlamMatrix(const AffineIfs& ifs, double lo,
                                           double hi, size_t num_cells,
                                           const SparseUlamOptions& options) {
  EQIMPACT_CHECK_EQ(ifs.dimension(), 1u);
  EQIMPACT_CHECK_LT(lo, hi);
  EQIMPACT_CHECK_GT(num_cells, 0u);
  const double width = (hi - lo) / static_cast<double>(num_cells);

  std::vector<std::vector<std::pair<size_t, double>>> rows(num_cells);
  runtime::ParallelForOptions parallel;
  parallel.num_threads = options.num_threads;
  parallel.pool = options.pool;
  runtime::ParallelForChunks(
      num_cells, kBuildChunkRows,
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        std::vector<std::pair<size_t, double>> scratch;
        for (size_t i = begin; i < end; ++i) {
          BuildUlamRow(ifs, lo, hi, width, num_cells, i, &scratch, &rows[i]);
        }
      },
      parallel);

  size_t nnz = 0;
  for (const auto& row : rows) nnz += row.size();
  linalg::SparseMatrix::Builder builder(num_cells, num_cells);
  for (size_t i = 0; i < num_cells; ++i) {
    for (const auto& entry : rows[i]) {
      builder.Add(i, entry.first, entry.second);
    }
  }
  linalg::SparseMatrix m = builder.Build();
  EQIMPACT_CHECK_EQ(m.nonzeros(), nnz);
  return m;
}

}  // namespace

SparseUlamOperator::SparseUlamOperator(const AffineIfs& ifs, double lo,
                                       double hi, size_t num_cells,
                                       const SparseUlamOptions& options)
    : lo_(lo),
      hi_(hi),
      cell_width_((hi - lo) / static_cast<double>(num_cells)),
      transition_(BuildSparseUlamMatrix(ifs, lo, hi, num_cells, options)) {}

double SparseUlamOperator::CellCenter(size_t i) const {
  EQIMPACT_CHECK_LT(i, num_cells());
  return lo_ + (static_cast<double>(i) + 0.5) * cell_width_;
}

linalg::Vector SparseUlamOperator::Propagate(
    const linalg::Vector& cell_measure, unsigned steps,
    const linalg::SparseProductOptions& product) const {
  EQIMPACT_CHECK_EQ(cell_measure.size(), num_cells());
  const linalg::SparseMatrix transposed = adjoint();
  linalg::Vector measure = cell_measure;
  for (unsigned s = 0; s < steps; ++s) {
    measure = transposed.Multiply(measure, product);
  }
  return measure;
}

linalg::SparseStationaryResult SparseUlamOperator::StationarySolve(
    const linalg::SparseSolverOptions& options) const {
  return linalg::SparseStationaryDistribution(transition_, options);
}

std::optional<linalg::Vector> SparseUlamOperator::InvariantCellMeasure(
    const linalg::SparseSolverOptions& options) const {
  linalg::SparseStationaryResult result = StationarySolve(options);
  if (!result.converged) return std::nullopt;
  return result.distribution;
}

}  // namespace markov
}  // namespace eqimpact
