#include "linalg/sparse_eigen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/simd_scalar.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"

#if defined(EQIMPACT_AVX2_LANES)
#include <immintrin.h>
#endif

namespace eqimpact {
namespace linalg {
namespace {

// Strongly connected components of the support pattern, iterative Tarjan
// (explicit stack: recursion would overflow on 10^5-state chains). Returns
// the number of SCCs and fills component ids in [0, count).
size_t StronglyConnectedComponents(const SparseMatrix& a,
                                   std::vector<size_t>* component) {
  const size_t n = a.rows();
  constexpr size_t kUnvisited = static_cast<size_t>(-1);
  component->assign(n, kUnvisited);
  std::vector<size_t> index(n, kUnvisited);
  std::vector<size_t> lowlink(n, 0);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<size_t> stack;
  struct Frame {
    size_t node;
    size_t edge;  // next CSR slot to explore
  };
  std::vector<Frame> frames;
  size_t next_index = 0;
  size_t num_components = 0;
  const std::vector<size_t>& offsets = a.row_offsets();
  const std::vector<size_t>& cols = a.col_indices();

  for (size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back(Frame{root, offsets[root]});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const size_t v = frame.node;
      if (frame.edge < offsets[v + 1]) {
        const size_t w = cols[frame.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back(Frame{w, offsets[w]});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        while (true) {
          const size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          (*component)[w] = num_components;
          if (w == v) break;
        }
        ++num_components;
      }
      frames.pop_back();
      if (!frames.empty()) {
        Frame& parent = frames.back();
        lowlink[parent.node] = std::min(lowlink[parent.node], lowlink[v]);
      }
    }
  }
  return num_components;
}

// Terminal components among the `count` components of `a` that
// `component` assigns: those no edge of `a` leaves.
size_t CountTerminalComponents(const SparseMatrix& a,
                               const std::vector<size_t>& component,
                               size_t count) {
  std::vector<uint8_t> has_exit(count, 0);
  const std::vector<size_t>& offsets = a.row_offsets();
  const std::vector<size_t>& cols = a.col_indices();
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      if (component[cols[k]] != component[r]) has_exit[component[r]] = 1;
    }
  }
  size_t terminal = 0;
  for (size_t c = 0; c < count; ++c) {
    if (!has_exit[c]) ++terminal;
  }
  return terminal;
}

// The adjoint P^T of the stationary solve, four rows to a slice. Slice s
// holds rows 4s..4s+3: first the leading `width` entries of each, side by
// side (entry t of row 4s + j at begin + 4t + j), so one register
// accumulates the four rows; then each row's remaining entries, its tail,
// in CSR order. Rows past n pad the last slice and are empty, so the last
// n mod 4 rows are tails only. Every row keeps the entry order of
// SparseMatrix::Transposed (ascending source state), so a row's gather
// adds exactly what the CSR gather adds, in the same order.
struct Slice {
  /// Flat index of the slice's first entry.
  size_t begin = 0;
  /// Entries per row held side by side: the slice's shortest row.
  size_t width = 0;
  /// End of row 4s + j's tail; row j's tail starts where row j - 1's
  /// ends, row 0's at begin + 4 * width.
  size_t tail_end[4] = {};
  /// Entries of the iterate the pass must have normalised before it runs
  /// the slice: one past the highest column or row any row up to here
  /// reads (a prefix maximum), rounded up to a multiple of four.
  size_t ready = 0;
};

struct SlicedAdjoint {
  /// Built straight from the transition's CSR: adjoint row r is column r,
  /// read in ascending source row, so no transposed CSR is materialised.
  explicit SlicedAdjoint(const SparseMatrix& transition);

  std::vector<Slice> slices;
  std::vector<double> values;
  std::vector<int32_t> columns;
};

SlicedAdjoint::SlicedAdjoint(const SparseMatrix& transition)
    : slices((transition.rows() + 3) / 4) {
  // Columns narrow to int32, half the bytes of the CSR's; the CLI caps
  // cells at 10^6.
  EQIMPACT_CHECK_LE(transition.rows(), static_cast<size_t>(INT32_MAX));
  const std::vector<size_t>& offsets = transition.row_offsets();
  const std::vector<size_t>& cols = transition.col_indices();
  const std::vector<double>& vals = transition.values();
  // Adjoint row lengths first, then where each row's entries go.
  std::vector<size_t> filled(4 * slices.size(), 0);
  for (const size_t c : cols) ++filled[c];
  size_t at = 0;
  for (size_t s = 0; s < slices.size(); ++s) {
    Slice& slice = slices[s];
    const size_t* length = &filled[4 * s];
    slice.begin = at;
    slice.width = std::min({length[0], length[1], length[2], length[3]});
    at += 4 * slice.width;
    for (size_t j = 0; j < 4; ++j) {
      at += length[j] - slice.width;
      slice.tail_end[j] = at;
    }
  }
  EQIMPACT_CHECK_EQ(at, cols.size());
  values.resize(at);
  columns.resize(at);
  std::fill(filled.begin(), filled.end(), 0);
  for (size_t i = 0; i < transition.rows(); ++i) {
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const size_t r = cols[k];
      const size_t t = filled[r]++;
      Slice& slice = slices[r / 4];
      const size_t j = r % 4;
      const size_t position =
          t < slice.width
              ? slice.begin + 4 * t + j
              : (j == 0 ? slice.begin + 4 * slice.width
                        : slice.tail_end[j - 1]) +
                    (t - slice.width);
      values[position] = vals[k];
      columns[position] = static_cast<int32_t>(i);
      // One past the slice's highest column until the prefix maximum
      // below: source rows ascend, so the last entry placed is it.
      slice.ready = i + 1;
    }
  }
  size_t reach = 0;
  for (size_t s = 0; s < slices.size(); ++s) {
    reach = std::max({reach, slices[s].ready, 4 * s + 4});
    slices[s].ready = (reach + 3) / 4 * 4;
  }
}

// Adds values[k] * x[columns[k]] to `gathered` for k in [begin, end).
inline double GatherRange(const double* values, const int32_t* columns,
                          size_t begin, size_t end, const double* x,
                          double gathered) {
  for (size_t k = begin; k < end; ++k) gathered += values[k] * x[columns[k]];
  return gathered;
}

// One iteration of the lazy power iteration in one pass over the slices.
// `x` holds iterate k with sum `sum`, `y` iterate k - 1, both padded with
// zeros to 4 * slices.size() entries. The pass divides x by its sum and
// adds the L1 delta against y in index order, ahead of each slice by the
// slice's `ready`, and writes iterate k + 1 over y, row by row, adding
// each row to *next_sum as it goes. A row of y is written only after the
// delta has read it. A padded row writes 0.5 * (0 + 0) = +0, and adding
// +0 moves no bit of the delta, which is non-negative, nor of any sum the
// solver goes on with, which is positive. Returns the delta.
double PassScalar(const SlicedAdjoint& a, double sum, double* x, double* y,
                  double* next_sum) {
  const Slice* slices = a.slices.data();
  const size_t num_slices = a.slices.size();
  const double* values = a.values.data();
  const int32_t* columns = a.columns.data();
  double delta = 0.0;
  double written = 0.0;
  size_t done = 0;
  for (size_t s = 0; s < num_slices; ++s) {
    const Slice& slice = slices[s];
    for (; done < slice.ready; ++done) {
      x[done] /= sum;
      delta += std::fabs(x[done] - y[done]);
    }
    double gathered[4] = {0.0, 0.0, 0.0, 0.0};
    size_t k = slice.begin;
    for (size_t t = 0; t < slice.width; ++t, k += 4) {
      for (size_t j = 0; j < 4; ++j) {
        gathered[j] += values[k + j] * x[columns[k + j]];
      }
    }
    for (size_t j = 0; j < 4; ++j) {
      gathered[j] =
          GatherRange(values, columns, k, slice.tail_end[j], x, gathered[j]);
      k = slice.tail_end[j];
      const size_t r = 4 * s + j;
      // Lazy shift: x' = (x + P^T x) / 2 keeps periodic chains convergent.
      y[r] = 0.5 * (x[r] + gathered[j]);
      written += y[r];
    }
  }
  *next_sum = written;
  return delta;
}

#if defined(EQIMPACT_AVX2_LANES)

// PassScalar with one row per lane: the side-by-side entries load and
// accumulate four rows in one register, and the normalisation divides
// four entries at a time. Each lane replays its row's scalar operations
// in order, and the delta and the sum still add one entry at a time, in
// index order, so every bit is PassScalar's.
__attribute__((target("avx2"))) double PassAvx2(const SlicedAdjoint& a,
                                                double sum, double* x,
                                                double* y, double* next_sum) {
  const Slice* slices = a.slices.data();
  const size_t num_slices = a.slices.size();
  const double* values = a.values.data();
  const int32_t* columns = a.columns.data();
  const __m256d divisor = _mm256_set1_pd(sum);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d magnitude =
      _mm256_castsi256_pd(_mm256_set1_epi64x(INT64_MAX));
  double delta = 0.0;
  double written = 0.0;
  size_t done = 0;
  for (size_t s = 0; s < num_slices; ++s) {
    const Slice& slice = slices[s];
    for (; done < slice.ready; done += 4) {
      const __m256d normalised =
          _mm256_div_pd(_mm256_loadu_pd(x + done), divisor);
      _mm256_storeu_pd(x + done, normalised);
      const __m256d step = _mm256_and_pd(
          _mm256_sub_pd(normalised, _mm256_loadu_pd(y + done)), magnitude);
      const __m128d low = _mm256_castpd256_pd128(step);
      const __m128d high = _mm256_extractf128_pd(step, 1);
      delta += _mm_cvtsd_f64(low);
      delta += _mm_cvtsd_f64(_mm_unpackhi_pd(low, low));
      delta += _mm_cvtsd_f64(high);
      delta += _mm_cvtsd_f64(_mm_unpackhi_pd(high, high));
    }
    __m256d gathered = _mm256_setzero_pd();
    size_t k = slice.begin;
    for (size_t t = 0; t < slice.width; ++t, k += 4) {
      // Four loads rather than vgatherdpd: within ~5% of it on an AVX2
      // Xeon, and independent of how a CPU implements gathers.
      const __m256d entries =
          _mm256_set_pd(x[columns[k + 3]], x[columns[k + 2]],
                        x[columns[k + 1]], x[columns[k]]);
      gathered = _mm256_add_pd(
          gathered, _mm256_mul_pd(_mm256_loadu_pd(values + k), entries));
    }
    if (slice.tail_end[3] != k) {
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, gathered);
      for (size_t j = 0; j < 4; ++j) {
        lanes[j] =
            GatherRange(values, columns, k, slice.tail_end[j], x, lanes[j]);
        k = slice.tail_end[j];
      }
      gathered = _mm256_load_pd(lanes);
    }
    const size_t r = 4 * s;
    // Lazy shift: x' = (x + P^T x) / 2 keeps periodic chains convergent.
    const __m256d rows =
        _mm256_mul_pd(half, _mm256_add_pd(_mm256_loadu_pd(x + r), gathered));
    _mm256_storeu_pd(y + r, rows);
    written += y[r];
    written += y[r + 1];
    written += y[r + 2];
    written += y[r + 3];
  }
  *next_sum = written;
  return delta;
}

#endif  // EQIMPACT_AVX2_LANES

}  // namespace

bool IsIrreducible(const SparseMatrix& a) {
  EQIMPACT_CHECK_EQ(a.rows(), a.cols());
  if (a.rows() == 0) return false;
  std::vector<size_t> component;
  return StronglyConnectedComponents(a, &component) == 1;
}

size_t TerminalClassCount(const SparseMatrix& a) {
  EQIMPACT_CHECK_EQ(a.rows(), a.cols());
  std::vector<size_t> component;
  const size_t count = StronglyConnectedComponents(a, &component);
  return CountTerminalComponents(a, component, count);
}

SparseStationaryResult SparseStationaryDistribution(
    const SparseMatrix& transition, const SparseSolverOptions& options) {
  EQIMPACT_CHECK_EQ(transition.rows(), transition.cols());
  EQIMPACT_CHECK_GT(transition.rows(), 0u);
  const size_t n = transition.rows();

  SparseStationaryResult result;
  {
    std::vector<size_t> component;
    const size_t count = StronglyConnectedComponents(transition, &component);
    result.irreducible = (count == 1);
    result.terminal_classes =
        CountTerminalComponents(transition, component, count);
  }
  if (result.terminal_classes != 1) return result;

  // Two buffers, padded with zeros to whole slices, swap roles each pass,
  // so the solver allocates nothing inside the loop. Pass k normalises
  // iterate k and writes iterate k + 1; iterate 0, the uniform start, is
  // normalised already, and dividing it by 1 leaves its bits (pass 0's
  // delta is no step). The row pass after the converged iterate is
  // discarded.
  const size_t padded = (n + 3) / 4 * 4;
  std::vector<double> x(padded, 0.0);
  std::fill_n(x.begin(), n, 1.0 / static_cast<double>(n));
  std::vector<double> y(padded, 0.0);
  const SlicedAdjoint adjoint(transition);
  double (*pass)(const SlicedAdjoint&, double, double*, double*, double*) =
      PassScalar;
#if defined(EQIMPACT_AVX2_LANES)
  if (base::UseAvx2Lanes()) pass = PassAvx2;
#endif
  double sum = 1.0;
  for (int k = 0;; ++k) {
    double next_sum = 0.0;
    const double delta = pass(adjoint, sum, x.data(), y.data(), &next_sum);
    if (k > 0) {
      result.iterations = k;
      if (delta <= options.tolerance) {
        result.converged = true;
        x.resize(n);
        result.distribution = Vector(std::move(x));
        return result;
      }
    }
    if (k >= options.max_iterations) return result;
    x.swap(y);
    sum = next_sum;
    EQIMPACT_CHECK_GT(sum, 0.0);
  }
}

SubdominantResult SparseSubdominantModulus(const SparseMatrix& transition,
                                           const Vector& stationary,
                                           const SubdominantOptions& options) {
  EQIMPACT_CHECK_EQ(transition.rows(), transition.cols());
  EQIMPACT_CHECK_EQ(stationary.size(), transition.rows());
  const size_t n = transition.rows();

  SubdominantResult result;
  if (n <= 1) {
    // A one-state chain has no subdominant mode: gap 1 by convention.
    result.modulus = 0.0;
    result.spectral_gap = 1.0;
    result.valid = true;
    return result;
  }

  const SparseMatrix adjoint = transition.Transposed();
  const double* pi = stationary.data().data();
  // Deflated adjoint: B x = P^T x - pi (1^T x). Multiply checks that v has
  // n entries.
  const auto apply_deflated = [&](const Vector& v) {
    Vector out = adjoint.Multiply(v, options.product);
    EQIMPACT_CHECK_EQ(out.size(), n);
    const double* vv = v.data().data();
    double* ov = out.mutable_data().data();
    double mass = 0.0;
    for (size_t i = 0; i < n; ++i) mass += vv[i];
    for (size_t i = 0; i < n; ++i) ov[i] -= pi[i] * mass;
    return out;
  };

  const size_t m = std::min(options.subspace, n);
  std::vector<Vector> q;
  q.reserve(m + 1);
  Matrix h(m + 1, m);

  // Deterministic pseudo-random start vector (local LCG; no rng-layer
  // dependency) so the Krylov space is unlikely to miss lambda_2's
  // eigenvector the way a structured start could on symmetric chains.
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
    double* wv = w.mutable_data().data();
    // Modified Gram-Schmidt. Every basis vector is the start vector or an
    // apply_deflated output, so each has n entries.
    for (size_t i = 0; i <= j; ++i) {
      const double* qi = q[i].data().data();
      double hij = 0.0;
      for (size_t t = 0; t < n; ++t) hij += qi[t] * wv[t];
      h(i, j) = hij;
      for (size_t t = 0; t < n; ++t) wv[t] -= hij * qi[t];
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
    result.modulus = std::max(0.0, SpectralRadius(hm));
  }
  result.spectral_gap = std::max(0.0, 1.0 - result.modulus);
  result.valid = true;
  return result;
}

}  // namespace linalg
}  // namespace eqimpact
