#ifndef EQIMPACT_MARKOV_COUPLING_H_
#define EQIMPACT_MARKOV_COUPLING_H_

#include <cstddef>
#include <vector>

#include "markov/affine_ifs.h"
#include "rng/random.h"

namespace eqimpact {
namespace markov {

/// Result of a shared-randomness coupling experiment.
struct CouplingResult {
  /// Distance d(x_k, y_k) at each step (steps + 1 entries).
  std::vector<double> distances;
  /// Distance at the final step.
  double final_distance = 0.0;
  /// First step at which the distance fell below the threshold, or
  /// distances.size() if it never did.
  size_t coupling_time = 0;
  /// True if the trajectories coupled (distance fell below threshold).
  bool coupled = false;
  /// Empirical contraction rate: (d_final / d_0)^(1/steps), a Monte-Carlo
  /// estimate of the Lyapunov contraction of the synchronous coupling.
  double per_step_rate = 1.0;
};

/// Runs the *synchronous* (shared-randomness) coupling of two copies of
/// the IFS: both trajectories apply the same randomly chosen map at every
/// step, starting from x0 and y0.
///
/// This is the constructive side of the coupling arguments the paper's
/// conclusion points to (Hairer et al. 2011): if the synchronous coupling
/// contracts — which holds almost surely when the IFS is average
/// contractive, since d(w_e(x), w_e(y)) <= Lip(w_e) d(x, y) and the log
/// contraction factors average below zero — then any two copies of the
/// loop forget their initial conditions and the invariant measure is
/// unique. A coupling that fails to contract is evidence *against*
/// unique ergodicity, the contrapositive direction ("when such
/// guarantees are impossible to provide").
CouplingResult SynchronousCoupling(const AffineIfs& ifs,
                                   const linalg::Vector& x0,
                                   const linalg::Vector& y0, size_t steps,
                                   double threshold, rng::Random* random);

}  // namespace markov
}  // namespace eqimpact

#endif  // EQIMPACT_MARKOV_COUPLING_H_
