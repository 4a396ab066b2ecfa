#ifndef EQIMPACT_RNG_RANDOM_H_
#define EQIMPACT_RNG_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rng/pcg32.h"

namespace eqimpact {
namespace rng {

/// Deterministic random source with the distributions the library needs.
///
/// Wraps a Pcg32 stream and exposes uniform, Bernoulli, normal,
/// exponential, Pareto and integer draws. All algorithms are implemented
/// here (rather than via <random>) so that results are bit-reproducible
/// across standard libraries and platforms — essential for the
/// paper-reproduction benches, whose expected outputs are recorded in
/// EXPERIMENTS.md.
///
/// Not thread-safe; use one Random per thread / per trial. Use
/// `DeriveSeed` to spawn independent per-trial seeds from a master seed.
class Random {
 public:
  /// Constructs a stream from `seed`. Equal seeds give equal streams.
  explicit Random(uint64_t seed = 0) : gen_(seed) {}

  /// Uniform double in [0, 1). 53-bit resolution.
  double UniformDouble() {
    return static_cast<double>(gen_.Next64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Fills out[0..n) with the next n UniformDouble() draws — bit-for-bit
  /// the sequential sequence, but produced through the generator's
  /// multi-stream batch fill (rng::Pcg32::FillUniform) where the
  /// platform supports it. The stream position afterwards is exactly as
  /// if UniformDouble() had been called n times.
  void FillUniformDouble(double* out, size_t n) { gen_.FillUniform(out, n); }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection to
  /// avoid modulo bias.
  uint64_t UniformInt(uint64_t n);

  /// Bernoulli draw: returns true with probability p (clamped to [0,1]).
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Exponential draw with the given rate lambda > 0 (mean 1/lambda).
  double Exponential(double lambda);

  /// Pareto (Lomax-style) draw: xm * U^{-1/alpha}, support [xm, inf).
  /// Used for the open-ended top income bracket. Requires xm > 0, alpha > 0.
  double Pareto(double xm, double alpha);

  /// Fisher-Yates shuffle of `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Access to the underlying bit generator (for <random> interop).
  Pcg32& bit_generator() { return gen_; }

 private:
  Pcg32 gen_;
};

/// Derives the `index`-th child seed from `master`. Children with distinct
/// indices are statistically independent streams; used to give each trial
/// and each component (population, repayments, ...) its own stream.
uint64_t DeriveSeed(uint64_t master, uint64_t index);

}  // namespace rng
}  // namespace eqimpact

#endif  // EQIMPACT_RNG_RANDOM_H_
