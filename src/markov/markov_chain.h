#ifndef EQIMPACT_MARKOV_MARKOV_CHAIN_H_
#define EQIMPACT_MARKOV_MARKOV_CHAIN_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "rng/random.h"

namespace eqimpact {
namespace markov {

/// Finite-state Markov chain given by a row-stochastic transition matrix.
///
/// This is the simplest instance of the paper's Markov-system machinery:
/// the state space is finite, the "maps" are jumps between states, and
/// the invariant probability measure is the stationary distribution.
/// Irreducibility (strongly connected support graph) guarantees a unique
/// stationary distribution; aperiodicity additionally makes it attractive,
/// i.e. (P*)^n nu -> mu for every initial distribution nu — the paper's
/// Section VI certificate chain.
class MarkovChain {
 public:
  /// Constructs from `transition`; CHECK-fails unless the matrix is square
  /// and row-stochastic (within 1e-9).
  explicit MarkovChain(linalg::Matrix transition);

  size_t num_states() const { return transition_.rows(); }
  const linalg::Matrix& transition() const { return transition_; }

  /// Support graph: edge i -> j iff P(i, j) > 0.
  graph::Digraph SupportGraph() const;

  /// True if the support graph is strongly connected.
  bool IsIrreducible() const;

  /// Period of the chain (gcd of support-graph cycle lengths);
  /// CHECK-fails unless irreducible.
  size_t Period() const;

  /// Unique stationary distribution when one exists. For an irreducible
  /// finite chain this always succeeds; reducible chains may return
  /// std::nullopt (stationary distribution not unique).
  std::optional<linalg::Vector> StationaryDistribution() const;

  /// Distribution after `steps` applications of the adjoint operator P*
  /// starting from `initial` (a probability vector): initial * P^steps.
  linalg::Vector Propagate(const linalg::Vector& initial,
                           unsigned steps) const;

  /// Samples the successor state of `state`.
  size_t Step(size_t state, rng::Random* random) const;

  /// Simulates a path of `steps` transitions starting from `initial`;
  /// the returned vector has steps + 1 entries including the start.
  std::vector<size_t> SimulatePath(size_t initial, size_t steps,
                                   rng::Random* random) const;

  /// Empirical occupation frequencies of a simulated path after discarding
  /// `burn_in` initial states. By the ergodic theorem this converges to the
  /// stationary distribution for irreducible chains.
  linalg::Vector EmpiricalOccupation(size_t initial, size_t steps,
                                     size_t burn_in,
                                     rng::Random* random) const;

 private:
  linalg::Matrix transition_;
};

/// Total variation distance (1/2) * sum_i |p_i - q_i| between two
/// probability vectors of equal dimension.
double TotalVariationDistance(const linalg::Vector& p,
                              const linalg::Vector& q);

}  // namespace markov
}  // namespace eqimpact

#endif  // EQIMPACT_MARKOV_MARKOV_CHAIN_H_
