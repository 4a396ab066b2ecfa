#ifndef EQIMPACT_MARKOV_AFFINE_IFS_H_
#define EQIMPACT_MARKOV_AFFINE_IFS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "markov/affine_map.h"
#include "rng/random.h"

namespace eqimpact {
namespace markov {

/// Iterated function system with affine maps and constant probabilities
/// on a single cell (N = 1 Markov system).
///
/// For such systems the average contractivity condition of Elton (1987) /
/// Barnsley-Elton-Hardin (1989) is *exactly checkable*:
/// sum_e p_e * Lip(w_e) <= a < 1 guarantees a unique attractive invariant
/// measure and almost-sure convergence of time averages independent of the
/// initial condition — precisely the property "equal impact" rests on.
class AffineIfs {
 public:
  /// Constructs from maps and matching probabilities. CHECK-fails on empty
  /// systems, mismatched sizes, dimension mismatches between maps, or
  /// probabilities that are negative / do not sum to 1 (within 1e-9).
  AffineIfs(std::vector<AffineMap> maps, std::vector<double> probabilities);

  size_t num_maps() const { return maps_.size(); }
  size_t dimension() const { return maps_[0].dimension(); }
  const AffineMap& map(size_t e) const { return maps_[e]; }
  double probability(size_t e) const { return probabilities_[e]; }

  /// Exact average contraction factor sum_e p_e * Lip(w_e).
  double AverageContractionFactor() const;

  /// True if AverageContractionFactor() < 1.
  bool IsAverageContractive() const { return AverageContractionFactor() < 1.0; }

  /// One random transition.
  linalg::Vector Step(const linalg::Vector& x, rng::Random* random) const;

  /// Time average of `f` along a trajectory after `burn_in`.
  double TimeAverage(const linalg::Vector& x0, size_t steps, size_t burn_in,
                     const std::function<double(const linalg::Vector&)>& f,
                     rng::Random* random) const;

  /// Mean of the invariant measure, exact for average-contractive systems:
  /// solves m = sum_e p_e (A_e m + b_e), i.e.
  /// (I - sum_e p_e A_e) m = sum_e p_e b_e.
  /// CHECK-fails if the averaged linear part has spectral radius >= 1.
  linalg::Vector InvariantMean() const;

 private:
  std::vector<AffineMap> maps_;
  std::vector<double> probabilities_;
};

/// Verdict of a numerical Elton ergodic-theorem check.
struct EltonCheckResult {
  /// Time average from each initial condition.
  std::vector<double> time_averages;
  /// Largest pairwise gap between the time averages.
  double max_gap = 0.0;
  /// True if max_gap <= the tolerance passed to VerifyEltonConvergence.
  bool initial_condition_independent = false;
};

/// Empirically verifies Elton's ergodic theorem for `ifs`: runs one long
/// trajectory from each initial condition, computes the time average of
/// `f` after the burn-in, and reports whether all averages agree within
/// `tolerance`. For average-contractive IFS the theorem guarantees
/// agreement as steps -> infinity; for non-contractive systems this check
/// typically fails — which is how the library demonstrates the *loss* of
/// ergodicity under integral feedback (Fioravanti et al. 2019).
EltonCheckResult VerifyEltonConvergence(
    const AffineIfs& ifs, const std::vector<linalg::Vector>& initial_conditions,
    size_t steps, size_t burn_in,
    const std::function<double(const linalg::Vector&)>& f, double tolerance,
    rng::Random* random);

}  // namespace markov
}  // namespace eqimpact

#endif  // EQIMPACT_MARKOV_AFFINE_IFS_H_
