#include "linalg/sparse_eigen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/check.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "runtime/parallel_for.h"

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

size_t CountTerminalComponents(const SparseMatrix& a) {
  std::vector<size_t> component;
  const size_t count = StronglyConnectedComponents(a, &component);
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

}  // namespace

bool IsIrreducible(const SparseMatrix& a) {
  EQIMPACT_CHECK_EQ(a.rows(), a.cols());
  if (a.rows() == 0) return false;
  std::vector<size_t> component;
  return StronglyConnectedComponents(a, &component) == 1;
}

size_t TerminalClassCount(const SparseMatrix& a) {
  EQIMPACT_CHECK_EQ(a.rows(), a.cols());
  return CountTerminalComponents(a);
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
  }
  result.terminal_classes = CountTerminalComponents(transition);
  if (result.terminal_classes != 1) return result;

  // The adjoint is materialised once: its row gather accumulates each
  // component over ascending source states, the same order a dense
  // MultiplyLeft scatter produces. Two buffers swap roles each iteration,
  // so the solver allocates nothing inside the loop. The row pass runs
  // through ParallelFor over the chunk indices, with the body built once
  // here: ParallelForChunks would wrap it in a fresh std::function (a heap
  // allocation) per call.
  const SparseMatrix adjoint = transition.Transposed();
  const size_t* offsets = adjoint.row_offsets().data();
  const size_t* cols = adjoint.col_indices().data();
  const double* vals = adjoint.values().data();
  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  EQIMPACT_CHECK_EQ(adjoint.row_offsets().size(), n + 1);
  EQIMPACT_CHECK_EQ(x.size(), n);
  EQIMPACT_CHECK_EQ(next.size(), n);
  const size_t chunk_size = options.product.chunk_size;
  const std::function<void(size_t)> lazy_rows = [&](size_t chunk) {
    const double* xv = x.data();
    double* yv = next.data();
    const size_t end = std::min(n, (chunk + 1) * chunk_size);
    for (size_t r = chunk * chunk_size; r < end; ++r) {
      double gathered = 0.0;
      for (size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
        gathered += vals[k] * xv[cols[k]];
      }
      // Lazy shift: x' = (x + P^T x) / 2 keeps periodic chains convergent.
      yv[r] = 0.5 * (xv[r] + gathered);
    }
  };
  runtime::ParallelForOptions parallel;
  parallel.num_threads = options.product.num_threads;
  parallel.pool = options.product.pool;
  const size_t num_chunks = runtime::NumChunks(n, chunk_size);
  for (int it = 0; it < options.max_iterations; ++it) {
    // Row-owned outputs: bitwise-identical at every thread count.
    runtime::ParallelFor(num_chunks, lazy_rows, parallel);
    const double* xv = x.data();
    double* yv = next.data();
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += yv[i];
    EQIMPACT_CHECK_GT(sum, 0.0);
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      yv[i] /= sum;
      delta += std::fabs(yv[i] - xv[i]);
    }
    x.swap(next);
    result.iterations = it + 1;
    if (delta <= options.tolerance) {
      result.converged = true;
      result.distribution = Vector(std::move(x));
      return result;
    }
  }
  return result;
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
