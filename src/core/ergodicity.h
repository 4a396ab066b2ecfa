#ifndef EQIMPACT_CORE_ERGODICITY_H_
#define EQIMPACT_CORE_ERGODICITY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "markov/affine_ifs.h"
#include "markov/markov_chain.h"

namespace eqimpact {
namespace core {

/// Machine-checkable form of the paper's Section VI guarantee chain:
///
///   strongly connected graph        => an invariant measure exists
///   + primitive adjacency matrix    => the invariant measure is
///     (and average contractivity)      attractive; the loop is uniquely
///                                      ergodic; time averages converge
///                                      independently of initial
///                                      conditions (Elton / Werner)
///
/// A certificate with `uniquely_ergodic` true is the formal prerequisite
/// for an equal-impact guarantee: the limits r_i of Definition 3 then
/// exist and do not depend on where the loop started.
struct ErgodicityCertificate {
  bool irreducible = false;   ///< Graph strongly connected.
  size_t period = 0;          ///< Graph period (0 when not irreducible).
  bool aperiodic = false;     ///< Irreducible with period 1.
  /// Average contraction factor where available (exact for affine IFS,
  /// 1.0 placeholder where not applicable).
  double contraction_factor = 1.0;
  bool average_contractive = false;
  /// Invariant measure exists (irreducible).
  bool invariant_measure_exists = false;
  /// Invariant measure attractive and unique (all conditions together).
  bool uniquely_ergodic = false;

  /// One-line summary for reports.
  std::string Summary() const;
};

/// Certifies a finite-state Markov chain. For finite chains, average
/// contractivity is not needed: irreducibility alone gives a unique
/// stationary distribution; aperiodicity makes it attractive.
ErgodicityCertificate CertifyMarkovChain(const markov::MarkovChain& chain);

/// Certifies an affine IFS on a single cell: the graph conditions hold
/// trivially (one vertex with self-loops), so the certificate rests on
/// the exact average contraction factor sum_e p_e Lip(w_e) < 1.
ErgodicityCertificate CertifyAffineIfs(const markov::AffineIfs& ifs);

/// Controls for CertifyIfsSpectral.
struct SpectralCertificateOptions {
  /// Ulam resolution. O(num_cells) memory and per-iteration time via the
  /// sparse engine, so 10^5+ is practical.
  size_t num_cells = 4096;
  /// Total-variation accuracy the mixing-time bound is stated for.
  double epsilon = 0.01;
  /// Stationary-solver iteration cap and L1 step tolerance.
  int max_iterations = 100000;
  double tolerance = 1e-13;
  /// Krylov dimension for the subdominant-eigenvalue Arnoldi projection.
  size_t arnoldi_subspace = 32;
  /// Threads for the Ulam build and the Arnoldi matvecs (results are
  /// bitwise-identical at any value; see linalg/sparse_matrix.h). The
  /// stationary solve runs on the calling thread.
  size_t num_threads = 1;
};

/// Quantitative, simulation-free ergodicity certificate for a 1-d affine
/// IFS, computed on its sparse Ulam discretisation: invariant-measure
/// existence/uniqueness (structural: exactly one recurrent class),
/// spectral gap 1 - |lambda_2| via deflated Arnoldi, and a mixing-time
/// bound. The bound uses the standard spectral heuristic
///   t(eps) <= log(1 / (eps * pi_min)) / log(1 / |lambda_2|)
/// with pi_min the smallest positive stationary mass (exact for
/// reversible chains, a gap-based estimate otherwise — reported as a
/// diagnostic, not a proof). `certified` combines the continuous-side
/// Elton condition (average contractivity) with the discretised chain's
/// unique attractive invariant measure.
struct SpectralCertificate {
  size_t num_cells = 0;
  double lo = 0.0;
  double hi = 0.0;
  /// Continuous side: exact average contraction factor of the IFS.
  double contraction_factor = 1.0;
  bool average_contractive = false;
  /// Structure of the discretised chain.
  bool irreducible = false;
  size_t terminal_classes = 0;
  /// Stationary solve.
  bool invariant_measure_exists = false;
  double invariant_mean = 0.0;
  int solver_iterations = 0;
  bool solver_converged = false;
  /// FNV-1a digest of the stationary vector's bit patterns (0 when none).
  uint64_t measure_digest = 0;
  /// Spectral quantities (valid when an invariant measure was found).
  double subdominant_modulus = 1.0;
  double spectral_gap = 0.0;
  double mixing_time_epsilon = 0.01;
  /// Steps to come within epsilon of stationarity per the bound above;
  /// +inf when the gap is zero or no measure exists.
  double mixing_time_bound = std::numeric_limits<double>::infinity();
  /// Average contractivity + unique attractive invariant measure of the
  /// discretised chain, at this resolution.
  bool certified = false;
};

/// Computes a SpectralCertificate for `ifs` discretised on [lo, hi].
SpectralCertificate CertifyIfsSpectral(
    const markov::AffineIfs& ifs, double lo, double hi,
    const SpectralCertificateOptions& options = {});

}  // namespace core
}  // namespace eqimpact

#endif  // EQIMPACT_CORE_ERGODICITY_H_
