#include "rng/random.h"

#include <cmath>

#include "base/check.h"
#include "rng/splitmix64.h"

namespace eqimpact {
namespace rng {

uint64_t Random::UniformInt(uint64_t n) {
  EQIMPACT_CHECK_GT(n, 0u);
  // Lemire's nearly-divisionless method, 64-bit variant.
  uint64_t x = gen_.Next64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = gen_.Next64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Random::Exponential(double lambda) {
  EQIMPACT_CHECK_GT(lambda, 0.0);
  // 1 - U in (0, 1] avoids log(0).
  return -std::log(1.0 - UniformDouble()) / lambda;
}

double Random::Pareto(double xm, double alpha) {
  EQIMPACT_CHECK_GT(xm, 0.0);
  EQIMPACT_CHECK_GT(alpha, 0.0);
  return xm * std::pow(1.0 - UniformDouble(), -1.0 / alpha);
}

uint64_t DeriveSeed(uint64_t master, uint64_t index) {
  // Mix the pair (master, index) through SplitMix64 twice so that nearby
  // (master, index) pairs land far apart in seed space.
  SplitMix64 mix(master ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  mix.Next();
  return mix.Next();
}

}  // namespace rng
}  // namespace eqimpact
