#include "core/ergodicity.h"

#include <cmath>
#include <cstdio>

#include "base/fnv1a.h"
#include "markov/sparse_ulam.h"

namespace eqimpact {
namespace core {

std::string ErgodicityCertificate::Summary() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "irreducible=%s period=%zu aperiodic=%s contraction=%.4f "
                "invariant_measure=%s uniquely_ergodic=%s",
                irreducible ? "yes" : "no", period,
                aperiodic ? "yes" : "no", contraction_factor,
                invariant_measure_exists ? "exists" : "unknown",
                uniquely_ergodic ? "yes" : "no");
  return line;
}

ErgodicityCertificate CertifyMarkovChain(const markov::MarkovChain& chain) {
  ErgodicityCertificate certificate;
  certificate.irreducible = chain.IsIrreducible();
  if (certificate.irreducible) {
    certificate.period = chain.Period();
    certificate.aperiodic = certificate.period == 1;
  }
  // Finite state space: irreducibility alone pins down the invariant
  // measure; attractivity additionally needs aperiodicity.
  certificate.invariant_measure_exists = certificate.irreducible;
  certificate.contraction_factor = certificate.aperiodic ? 0.0 : 1.0;
  certificate.average_contractive = certificate.aperiodic;
  certificate.uniquely_ergodic =
      certificate.irreducible && certificate.aperiodic;
  return certificate;
}

ErgodicityCertificate CertifyAffineIfs(const markov::AffineIfs& ifs) {
  ErgodicityCertificate certificate;
  // Single-cell system: the vertex graph is one vertex with self-loops.
  certificate.irreducible = true;
  certificate.period = 1;
  certificate.aperiodic = true;
  certificate.contraction_factor = ifs.AverageContractionFactor();
  certificate.average_contractive = certificate.contraction_factor < 1.0;
  certificate.invariant_measure_exists = certificate.average_contractive;
  certificate.uniquely_ergodic = certificate.average_contractive;
  return certificate;
}

SpectralCertificate CertifyIfsSpectral(
    const markov::AffineIfs& ifs, double lo, double hi,
    const SpectralCertificateOptions& options) {
  SpectralCertificate certificate;
  certificate.num_cells = options.num_cells;
  certificate.lo = lo;
  certificate.hi = hi;
  certificate.mixing_time_epsilon = options.epsilon;
  certificate.contraction_factor = ifs.AverageContractionFactor();
  certificate.average_contractive = certificate.contraction_factor < 1.0;

  markov::SparseUlamOptions build;
  build.num_threads = options.num_threads;
  markov::SparseUlamOperator op(ifs, lo, hi, options.num_cells, build);

  linalg::SparseSolverOptions solver;
  solver.max_iterations = options.max_iterations;
  solver.tolerance = options.tolerance;
  solver.product.num_threads = options.num_threads;
  linalg::SparseStationaryResult stationary = op.StationarySolve(solver);
  certificate.irreducible = stationary.irreducible;
  certificate.terminal_classes = stationary.terminal_classes;
  certificate.solver_iterations = stationary.iterations;
  certificate.solver_converged = stationary.converged;
  certificate.invariant_measure_exists =
      stationary.converged && stationary.distribution.has_value();
  if (!certificate.invariant_measure_exists) return certificate;

  const linalg::Vector& pi = *stationary.distribution;
  base::Fnv1a digest;
  double mean = 0.0;
  double pi_min = 1.0;
  for (size_t i = 0; i < pi.size(); ++i) {
    digest.MixDouble(pi[i]);
    mean += pi[i] * op.CellCenter(i);
    if (pi[i] > 0.0 && pi[i] < pi_min) pi_min = pi[i];
  }
  certificate.measure_digest = digest.hash();
  certificate.invariant_mean = mean;

  linalg::SubdominantOptions subdominant;
  subdominant.subspace = options.arnoldi_subspace;
  subdominant.product.num_threads = options.num_threads;
  linalg::SubdominantResult spectrum =
      linalg::SparseSubdominantModulus(op.transition(), pi, subdominant);
  certificate.subdominant_modulus = spectrum.modulus;
  certificate.spectral_gap = spectrum.spectral_gap;
  if (spectrum.modulus <= 0.0) {
    // Rank-one chain: one step reaches stationarity.
    certificate.mixing_time_bound = 1.0;
  } else if (spectrum.modulus < 1.0) {
    certificate.mixing_time_bound =
        std::ceil(std::log(1.0 / (options.epsilon * pi_min)) /
                  std::log(1.0 / spectrum.modulus));
  }
  certificate.certified = certificate.average_contractive &&
                          certificate.invariant_measure_exists &&
                          certificate.spectral_gap > 0.0;
  return certificate;
}

}  // namespace core
}  // namespace eqimpact
