#ifndef EQIMPACT_RNG_PCG32_H_
#define EQIMPACT_RNG_PCG32_H_

#include <cstddef>
#include <cstdint>

#include "rng/splitmix64.h"

namespace eqimpact {
namespace rng {

/// PCG-XSH-RR 64/32 pseudo-random generator (O'Neill 2014).
///
/// 64-bit LCG state with a permuted 32-bit output. Small, fast, and passes
/// TestU01 BigCrush; statistically more than adequate for the Monte-Carlo
/// simulations in this library. Satisfies the C++ UniformRandomBitGenerator
/// requirements so it can also drive <random> distributions if desired,
/// though the library ships its own deterministic distributions.
class Pcg32 {
 public:
  using result_type = uint32_t;

  /// Constructs from a seed; the seed is expanded through SplitMix64 so that
  /// low-entropy seeds (0, 1, 2, ...) still yield well-separated streams.
  explicit Pcg32(uint64_t seed = 0x853C49E6748FEA9BULL,
                 uint64_t stream = 0xDA3E39CB94B95BDBULL) {
    SplitMix64 mix(seed);
    inc_ = (mix.Next() ^ stream) | 1ULL;  // Stream selector must be odd.
    state_ = mix.Next();
    Next();
  }

  /// Returns the next 32-bit output.
  uint32_t Next() {
    uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    uint32_t rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Returns the next 64-bit output (two 32-bit draws).
  uint64_t Next64() {
    uint64_t hi = Next();
    return (hi << 32) | Next();
  }

  // UniformRandomBitGenerator interface.
  uint32_t operator()() { return Next(); }
  static constexpr uint32_t min() { return 0; }
  static constexpr uint32_t max() { return 0xFFFFFFFFu; }

  /// Fills out[0..n) with the next n uniform doubles in [0, 1),
  /// bit-for-bit the draws n repetitions of
  /// `(Next64() >> 11) * 0x1.0p-53` would produce (the rng::Random
  /// UniformDouble convention), and leaves the generator in exactly the
  /// state those 2n Next() calls would — batch and sequential draws
  /// interleave freely.
  ///
  /// On x86-64 with AVX2 the fill runs 8 lanes wide: the LCG's k-step
  /// jump multipliers (state after k steps is a_k * state + c_k, with
  /// a_k, c_k computed in O(log k)) stagger 8 sub-streams one step
  /// apart — four even-position lanes producing the high words and four
  /// odd-position lanes the low words of the 64-bit draws — and every
  /// lane then advances 8 steps per iteration, so the emitted sequence
  /// is *identical* to the sequential one, not merely equidistributed.
  /// Elsewhere (or under EQIMPACT_FORCE_SCALAR /
  /// base::SetSimdForceScalarForTesting) the fill is the scalar loop.
  void FillUniform(double* out, size_t n);

 private:
  uint64_t state_;
  uint64_t inc_;
};

}  // namespace rng
}  // namespace eqimpact

#endif  // EQIMPACT_RNG_PCG32_H_
