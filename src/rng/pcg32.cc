#include "rng/pcg32.h"

#include "base/simd_scalar.h"

// The AVX2 batch fill is compiled even in default builds and entered
// only when base::UseAvx2Lanes() holds (see base/simd_scalar.h); its
// output permutation needs AVX2's per-lane variable 64-bit shifts
// (vpsrlvq). Without it the fill is the scalar loop.
#if defined(EQIMPACT_AVX2_LANES)
#include <immintrin.h>
#endif

namespace eqimpact {
namespace rng {
namespace {

#if defined(EQIMPACT_AVX2_LANES)

// The LCG multiplier of PCG-XSH-RR 64/32 (O'Neill 2014).
constexpr uint64_t kPcgMult = 6364136223846793005ULL;

// state -> state * mult + plus (mod 2^64): one application of the jump.
struct LcgJump {
  uint64_t mult = 1;
  uint64_t plus = 0;
};

// Jump parameters for `steps` LCG steps under increment `inc`, via
// Brown's O(log steps) fast-skip recurrence (as in pcg_advance_lcg_64).
LcgJump JumpParams(uint64_t inc, uint64_t steps) {
  LcgJump acc;
  uint64_t cur_mult = kPcgMult;
  uint64_t cur_plus = inc;
  while (steps > 0) {
    if (steps & 1) {
      acc.mult *= cur_mult;
      acc.plus = acc.plus * cur_mult + cur_plus;
    }
    cur_plus = (cur_mult + 1) * cur_plus;
    cur_mult *= cur_mult;
    steps >>= 1;
  }
  return acc;
}

// a * b mod 2^64 per 64-bit lane (AVX2 has no 64-bit multiply; build it
// from 32 x 32 -> 64 partial products).
__attribute__((target("avx2"))) inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// PCG's XSH-RR output permutation of four states at once; the 32-bit
// result sits in the low half of each 64-bit lane. The variable rotate
// is a doubled word followed by a per-lane variable right shift.
__attribute__((target("avx2"))) inline __m256i PcgOutput(__m256i state) {
  const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  __m256i xorshifted = _mm256_srli_epi64(
      _mm256_xor_si256(_mm256_srli_epi64(state, 18), state), 27);
  xorshifted = _mm256_and_si256(xorshifted, low32);
  const __m256i rot = _mm256_srli_epi64(state, 59);
  const __m256i doubled =
      _mm256_or_si256(xorshifted, _mm256_slli_epi64(xorshifted, 32));
  return _mm256_and_si256(_mm256_srlv_epi64(doubled, rot), low32);
}

// Fills out[0..4*(n/4)) and advances *state by 8*(n/4) steps. Lane j of
// `even` starts at step 2j of *state and produces the high words; lane j
// of `odd` starts at step 2j+1 and produces the low words; both advance
// 8 steps per iteration via the jump multipliers, so each iteration
// emits draws 4t..4t+3 of the sequential sequence.
__attribute__((target("avx2"))) void FillUniformAvx2(uint64_t* state,
                                                     uint64_t inc,
                                                     double* out, size_t n) {
  uint64_t staggered[8];
  uint64_t cursor = *state;
  for (int j = 0; j < 8; ++j) {
    staggered[j] = cursor;
    cursor = cursor * kPcgMult + inc;
  }
  __m256i even = _mm256_set_epi64x(static_cast<long long>(staggered[6]),
                                   static_cast<long long>(staggered[4]),
                                   static_cast<long long>(staggered[2]),
                                   static_cast<long long>(staggered[0]));
  __m256i odd = _mm256_set_epi64x(static_cast<long long>(staggered[7]),
                                  static_cast<long long>(staggered[5]),
                                  static_cast<long long>(staggered[3]),
                                  static_cast<long long>(staggered[1]));
  const LcgJump jump8 = JumpParams(inc, 8);
  const __m256i mult8 = _mm256_set1_epi64x(static_cast<long long>(jump8.mult));
  const __m256i plus8 = _mm256_set1_epi64x(static_cast<long long>(jump8.plus));

  const size_t iters = n / 4;
  alignas(32) uint64_t mantissa[4];
  for (size_t it = 0; it < iters; ++it) {
    const __m256i hi = PcgOutput(even);
    const __m256i lo = PcgOutput(odd);
    const __m256i draw = _mm256_or_si256(_mm256_slli_epi64(hi, 32), lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(mantissa),
                       _mm256_srli_epi64(draw, 11));
    // The 53-bit mantissas convert exactly, like the scalar cast.
    out[0] = static_cast<double>(mantissa[0]) * 0x1.0p-53;
    out[1] = static_cast<double>(mantissa[1]) * 0x1.0p-53;
    out[2] = static_cast<double>(mantissa[2]) * 0x1.0p-53;
    out[3] = static_cast<double>(mantissa[3]) * 0x1.0p-53;
    out += 4;
    even = _mm256_add_epi64(MulLo64(even, mult8), plus8);
    odd = _mm256_add_epi64(MulLo64(odd, mult8), plus8);
  }
  // Lane 0 of `even` has advanced 8 steps per iteration from *state —
  // exactly the state 2 * (4 * iters) sequential Next() calls reach.
  *state = static_cast<uint64_t>(_mm256_extract_epi64(even, 0));
}

#endif  // EQIMPACT_AVX2_LANES

}  // namespace

void Pcg32::FillUniform(double* out, size_t n) {
  size_t filled = 0;
#if defined(EQIMPACT_AVX2_LANES)
  // The staggered-stream setup costs ~8 scalar LCG steps plus the jump
  // parameters; below a couple of vectors it cannot win.
  if (n >= 16 && base::UseAvx2Lanes()) {
    FillUniformAvx2(&state_, inc_, out, n);
    filled = (n / 4) * 4;
  }
#endif
  for (; filled < n; ++filled) {
    out[filled] = static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }
}

}  // namespace rng
}  // namespace eqimpact
