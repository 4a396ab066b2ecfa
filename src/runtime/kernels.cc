#include "runtime/kernels.h"

#include <cmath>

#include "base/simd_scalar.h"

// The AVX2 lanes compile through the target("avx2") function attribute,
// so default builds carry them; they are entered only when
// base::UseAvx2Lanes() says the CPU supports AVX2 and the force-scalar
// switch is off (see base/simd_scalar.h).
#if defined(EQIMPACT_AVX2_LANES)
#include <immintrin.h>
#endif

namespace eqimpact {
namespace runtime {
namespace kernels {

// ---------------------------------------------------------------------------
// Scalar references. These pin the exact per-element evaluation order of
// the call sites they were lifted from; every vector lane below must be
// bit-for-bit equal to them (tests/simd_test.cc).
// ---------------------------------------------------------------------------

void IncomeCodeScalar(const double* income, size_t n, double threshold,
                      double* code) {
  for (size_t i = 0; i < n; ++i) {
    code[i] = income[i] >= threshold ? 1.0 : 0.0;
  }
}

void ScoreSweepScalar(const double* income, const double* adr, size_t n,
                      const ScoreParams& params, double* code,
                      unsigned char* approved) {
  for (size_t i = 0; i < n; ++i) {
    const double code_i = income[i] >= params.code_threshold ? 1.0 : 0.0;
    code[i] = code_i;
    const double score = (params.base_points + params.adr_weight * adr[i]) +
                         params.code_weight * code_i;
    approved[i] = score > params.cutoff ? 1 : 0;
  }
}

void SurplusShareScalar(const double* income, size_t n,
                        double income_multiple, double living_cost,
                        double annual_rate, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double z = income[i];
    const double mortgage = income_multiple * z;
    out[i] = ((z - living_cost) - annual_rate * mortgage) / z;
  }
}

void GuardedRatioScalar(const double* num, const double* den, size_t n,
                        double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = den[i] <= 0.0 ? 0.0 : num[i] / den[i];
  }
}

void SigmoidBatchScalar(const double* t, size_t n, double* out) {
  // ml::Sigmoid's two branches, verbatim.
  for (size_t i = 0; i < n; ++i) {
    const double v = t[i];
    if (v >= 0.0) {
      const double e = std::exp(-v);
      out[i] = 1.0 / (1.0 + e);
    } else {
      const double e = std::exp(v);
      out[i] = e / (1.0 + e);
    }
  }
}

void NormalCdfBatchScalar(const double* x, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = base::NormalCdfScalar(x[i]);
  }
}

void LinearPredictor2Scalar(const double* rows, size_t n, double w0,
                            double w1, double bias, bool add_bias,
                            double* out) {
  // RowDot's accumulation: the initial zero is part of the contract
  // (0.0 + -0.0 == +0.0, so dropping it would flip signed zeros).
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    acc += rows[2 * i] * w0;
    acc += rows[2 * i + 1] * w1;
    out[i] = add_bias ? acc + bias : acc;
  }
}

#if defined(EQIMPACT_AVX2_LANES)

// ---------------------------------------------------------------------------
// AVX2 lanes (4 x double).
// ---------------------------------------------------------------------------

namespace {

__attribute__((target("avx2"))) void IncomeCodeAvx2(const double* income,
                                                    size_t n,
                                                    double threshold,
                                                    double* code) {
  const __m256d thr = _mm256_set1_pd(threshold);
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(income + i), thr, _CMP_GE_OQ);
    _mm256_storeu_pd(code + i, _mm256_and_pd(mask, one));
  }
  IncomeCodeScalar(income + i, n - i, threshold, code + i);
}

__attribute__((target("avx2"))) void ScoreSweepAvx2(
    const double* income, const double* adr, size_t n,
    const ScoreParams& params, double* code, unsigned char* approved) {
  const __m256d thr = _mm256_set1_pd(params.code_threshold);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d base = _mm256_set1_pd(params.base_points);
  const __m256d w_adr = _mm256_set1_pd(params.adr_weight);
  const __m256d w_code = _mm256_set1_pd(params.code_weight);
  const __m256d cutoff = _mm256_set1_pd(params.cutoff);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d code_v = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(income + i), thr, _CMP_GE_OQ), one);
    _mm256_storeu_pd(code + i, code_v);
    const __m256d score = _mm256_add_pd(
        _mm256_add_pd(base, _mm256_mul_pd(w_adr, _mm256_loadu_pd(adr + i))),
        _mm256_mul_pd(w_code, code_v));
    const int bits =
        _mm256_movemask_pd(_mm256_cmp_pd(score, cutoff, _CMP_GT_OQ));
    approved[i] = static_cast<unsigned char>(bits & 1);
    approved[i + 1] = static_cast<unsigned char>((bits >> 1) & 1);
    approved[i + 2] = static_cast<unsigned char>((bits >> 2) & 1);
    approved[i + 3] = static_cast<unsigned char>((bits >> 3) & 1);
  }
  ScoreSweepScalar(income + i, adr + i, n - i, params, code + i,
                   approved + i);
}

__attribute__((target("avx2"))) void SurplusShareAvx2(
    const double* income, size_t n, double income_multiple,
    double living_cost, double annual_rate, double* out) {
  const __m256d multiple = _mm256_set1_pd(income_multiple);
  const __m256d living = _mm256_set1_pd(living_cost);
  const __m256d rate = _mm256_set1_pd(annual_rate);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d z = _mm256_loadu_pd(income + i);
    const __m256d mortgage = _mm256_mul_pd(multiple, z);
    const __m256d numer =
        _mm256_sub_pd(_mm256_sub_pd(z, living), _mm256_mul_pd(rate, mortgage));
    _mm256_storeu_pd(out + i, _mm256_div_pd(numer, z));
  }
  SurplusShareScalar(income + i, n - i, income_multiple, living_cost,
                     annual_rate, out + i);
}

__attribute__((target("avx2"))) void GuardedRatioAvx2(const double* num,
                                                      const double* den,
                                                      size_t n, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_loadu_pd(den + i);
    const __m256d ratio = _mm256_div_pd(_mm256_loadu_pd(num + i), d);
    _mm256_storeu_pd(
        out + i,
        _mm256_andnot_pd(_mm256_cmp_pd(d, zero, _CMP_LE_OQ), ratio));
  }
  GuardedRatioScalar(num + i, den + i, n - i, out + i);
}

__attribute__((target("avx2"))) void SigmoidBatchAvx2(const double* t,
                                                      size_t n, double* out) {
  const size_t vec = n - n % 4;
  for (size_t i = 0; i < vec; ++i) {
    const double v = t[i];
    out[i] = std::exp(v >= 0.0 ? -v : v);
  }
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  for (size_t i = 0; i < vec; i += 4) {
    const __m256d e = _mm256_loadu_pd(out + i);
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(t + i), zero, _CMP_GE_OQ);
    const __m256d numer = _mm256_blendv_pd(e, one, mask);
    _mm256_storeu_pd(out + i, _mm256_div_pd(numer, _mm256_add_pd(one, e)));
  }
  SigmoidBatchScalar(t + vec, n - vec, out + vec);
}

__attribute__((target("avx2"))) void LinearPredictor2Avx2(
    const double* rows, size_t n, double w0, double w1, double bias,
    bool add_bias, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d w0v = _mm256_set1_pd(w0);
  const __m256d w1v = _mm256_set1_pd(w1);
  const __m256d bv = _mm256_set1_pd(bias);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r0 = _mm256_loadu_pd(rows + 2 * i);      // a0 c0 a1 c1
    const __m256d r1 = _mm256_loadu_pd(rows + 2 * i + 4);  // a2 c2 a3 c3
    // 256-bit unpack works per 128-bit half, so the deinterleaved lanes
    // come out in logical order [0, 2, 1, 3]; the elementwise arithmetic
    // does not care, and one permute restores user order at the end.
    const __m256d a = _mm256_unpacklo_pd(r0, r1);  // a0 a2 a1 a3
    const __m256d c = _mm256_unpackhi_pd(r0, r1);  // c0 c2 c1 c3
    __m256d acc = _mm256_add_pd(zero, _mm256_mul_pd(a, w0v));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(c, w1v));
    if (add_bias) acc = _mm256_add_pd(acc, bv);
    _mm256_storeu_pd(out + i,
                     _mm256_permute4x64_pd(acc, _MM_SHUFFLE(3, 1, 2, 0)));
  }
  LinearPredictor2Scalar(rows + 2 * i, n - i, w0, w1, bias, add_bias,
                         out + i);
}

// The pinned Cody-Waite exp of base::NormalCdfScalar, four lanes at a
// time — every operation mirrors PinnedExp in base/simd_scalar.cc. The
// truncating cvttpd matches the scalar int32 cast (n is exactly
// integer-valued), and e + 1023 is always positive here, so the
// sign-extending cvtepi32_epi64 agrees with the scalar bit assembly.
__attribute__((target("avx2"))) inline __m256d PinnedExpAvx2(__m256d v) {
  namespace phi = base::phi;
  const __m256d shift = _mm256_set1_pd(phi::kExpShift);
  const __m256d shifted =
      _mm256_add_pd(_mm256_mul_pd(v, _mm256_set1_pd(phi::kExpLog2E)), shift);
  const __m256d n = _mm256_sub_pd(shifted, shift);
  __m256d r = _mm256_sub_pd(v, _mm256_mul_pd(n, _mm256_set1_pd(phi::kExpLn2Hi)));
  r = _mm256_sub_pd(r, _mm256_mul_pd(n, _mm256_set1_pd(phi::kExpLn2Lo)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(r2, r2);
  const __m256d r8 = _mm256_mul_pd(r4, r4);
  const __m256d b0 =
      _mm256_add_pd(_mm256_set1_pd(phi::kExpCoeff[0]),
                    _mm256_mul_pd(_mm256_set1_pd(phi::kExpCoeff[1]), r));
  const __m256d b1 =
      _mm256_add_pd(_mm256_set1_pd(phi::kExpCoeff[2]),
                    _mm256_mul_pd(_mm256_set1_pd(phi::kExpCoeff[3]), r));
  const __m256d b2 =
      _mm256_add_pd(_mm256_set1_pd(phi::kExpCoeff[4]),
                    _mm256_mul_pd(_mm256_set1_pd(phi::kExpCoeff[5]), r));
  const __m256d b3 =
      _mm256_add_pd(_mm256_set1_pd(phi::kExpCoeff[6]),
                    _mm256_mul_pd(_mm256_set1_pd(phi::kExpCoeff[7]), r));
  const __m256d b4 =
      _mm256_add_pd(_mm256_set1_pd(phi::kExpCoeff[8]),
                    _mm256_mul_pd(_mm256_set1_pd(phi::kExpCoeff[9]), r));
  const __m256d b5 =
      _mm256_add_pd(_mm256_set1_pd(phi::kExpCoeff[10]),
                    _mm256_mul_pd(_mm256_set1_pd(phi::kExpCoeff[11]), r));
  const __m256d b6 =
      _mm256_add_pd(_mm256_set1_pd(phi::kExpCoeff[12]),
                    _mm256_mul_pd(_mm256_set1_pd(phi::kExpCoeff[13]), r));
  const __m256d q0 = _mm256_add_pd(b0, _mm256_mul_pd(b1, r2));
  const __m256d q1 = _mm256_add_pd(b2, _mm256_mul_pd(b3, r2));
  const __m256d q2 = _mm256_add_pd(b4, _mm256_mul_pd(b5, r2));
  const __m256d h0 = _mm256_add_pd(q0, _mm256_mul_pd(q1, r4));
  const __m256d h1 = _mm256_add_pd(q2, _mm256_mul_pd(b6, r4));
  const __m256d p = _mm256_add_pd(h0, _mm256_mul_pd(h1, r8));
  const __m128i ni = _mm256_cvttpd_epi32(n);
  const __m128i e1 = _mm_srai_epi32(ni, 1);
  const __m128i e2 = _mm_sub_epi32(ni, e1);
  const __m128i bias = _mm_set1_epi32(1023);
  const __m256d s1 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(e1, bias)), 52));
  const __m256d s2 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(e2, bias)), 52));
  return _mm256_mul_pd(_mm256_mul_pd(p, s1), s2);
}

__attribute__((target("avx2"))) void NormalCdfAvx2(const double* x, size_t n,
                                                   double* out) {
  namespace phi = base::phi;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d clamp = _mm256_set1_pd(phi::kClamp);
  const __m256d neg_clamp = _mm256_set1_pd(-phi::kClamp);
  const __m256d sqrt2 = _mm256_set1_pd(phi::kSqrt2);
  size_t i = 0;
  // Two independent 4-lane groups per iteration: the rational + pinned-exp
  // evaluation is a long dependency chain, and interleaving two groups is
  // what keeps the FMA-free multiply/add ports busy. Per-lane operations
  // are exactly those of the 4-wide loop below (a group with no lane in a
  // branch may compute that branch anyway, but the result is blended away
  // by that group's own masks), so lanes stay bit-for-bit the scalar
  // reference.
  for (; i + 8 <= n; i += 8) {
    const __m256d vxa = _mm256_loadu_pd(x + i);
    const __m256d vxb = _mm256_loadu_pd(x + i + 4);
    const __m256d nan_mask_a = _mm256_cmp_pd(vxa, vxa, _CMP_UNORD_Q);
    const __m256d nan_mask_b = _mm256_cmp_pd(vxb, vxb, _CMP_UNORD_Q);
    const __m256d hi_mask_a = _mm256_cmp_pd(vxa, clamp, _CMP_GT_OQ);
    const __m256d hi_mask_b = _mm256_cmp_pd(vxb, clamp, _CMP_GT_OQ);
    const __m256d lo_mask_a = _mm256_cmp_pd(vxa, neg_clamp, _CMP_LT_OQ);
    const __m256d lo_mask_b = _mm256_cmp_pd(vxb, neg_clamp, _CMP_LT_OQ);
    __m256d xca = _mm256_blendv_pd(vxa, clamp, hi_mask_a);
    __m256d xcb = _mm256_blendv_pd(vxb, clamp, hi_mask_b);
    xca = _mm256_blendv_pd(xca, neg_clamp, lo_mask_a);
    xcb = _mm256_blendv_pd(xcb, neg_clamp, lo_mask_b);
    const __m256d za = _mm256_div_pd(_mm256_xor_pd(xca, sign), sqrt2);
    const __m256d zb = _mm256_div_pd(_mm256_xor_pd(xcb, sign), sqrt2);
    const __m256d ya = _mm256_andnot_pd(sign, za);
    const __m256d yb = _mm256_andnot_pd(sign, zb);
    const __m256d sa = _mm256_mul_pd(za, za);
    const __m256d sb = _mm256_mul_pd(zb, zb);
    const __m256d centre_mask_a =
        _mm256_cmp_pd(ya, _mm256_set1_pd(phi::kErfSwitch), _CMP_LE_OQ);
    const __m256d centre_mask_b =
        _mm256_cmp_pd(yb, _mm256_set1_pd(phi::kErfSwitch), _CMP_LE_OQ);
    const __m256d far_mask_a =
        _mm256_cmp_pd(ya, _mm256_set1_pd(phi::kTailSwitch), _CMP_GT_OQ);
    const __m256d far_mask_b =
        _mm256_cmp_pd(yb, _mm256_set1_pd(phi::kTailSwitch), _CMP_GT_OQ);
    const int centre_bits_a = _mm256_movemask_pd(centre_mask_a);
    const int centre_bits_b = _mm256_movemask_pd(centre_mask_b);
    const int tail_bits_a = (~centre_bits_a) & 0xF;  // NaN lanes land here.
    const int tail_bits_b = (~centre_bits_b) & 0xF;
    __m256d phi_centre_a = zero;
    __m256d phi_centre_b = zero;
    __m256d phi_tail_a = zero;
    __m256d phi_tail_b = zero;
    if ((centre_bits_a | centre_bits_b) != 0) {
      __m256d num_a = _mm256_mul_pd(_mm256_set1_pd(phi::kErfA[4]), sa);
      __m256d num_b = _mm256_mul_pd(_mm256_set1_pd(phi::kErfA[4]), sb);
      __m256d den_a = sa;
      __m256d den_b = sb;
      for (int j = 0; j < 3; ++j) {
        num_a = _mm256_mul_pd(
            _mm256_add_pd(num_a, _mm256_set1_pd(phi::kErfA[j])), sa);
        num_b = _mm256_mul_pd(
            _mm256_add_pd(num_b, _mm256_set1_pd(phi::kErfA[j])), sb);
        den_a = _mm256_mul_pd(
            _mm256_add_pd(den_a, _mm256_set1_pd(phi::kErfB[j])), sa);
        den_b = _mm256_mul_pd(
            _mm256_add_pd(den_b, _mm256_set1_pd(phi::kErfB[j])), sb);
      }
      const __m256d erf_a = _mm256_div_pd(
          _mm256_mul_pd(za,
                        _mm256_add_pd(num_a, _mm256_set1_pd(phi::kErfA[3]))),
          _mm256_add_pd(den_a, _mm256_set1_pd(phi::kErfB[3])));
      const __m256d erf_b = _mm256_div_pd(
          _mm256_mul_pd(zb,
                        _mm256_add_pd(num_b, _mm256_set1_pd(phi::kErfA[3]))),
          _mm256_add_pd(den_b, _mm256_set1_pd(phi::kErfB[3])));
      phi_centre_a = _mm256_mul_pd(half, _mm256_sub_pd(one, erf_a));
      phi_centre_b = _mm256_mul_pd(half, _mm256_sub_pd(one, erf_b));
    }
    if ((tail_bits_a | tail_bits_b) != 0) {
      __m256d num_a = _mm256_mul_pd(_mm256_set1_pd(phi::kErfcC[8]), ya);
      __m256d num_b = _mm256_mul_pd(_mm256_set1_pd(phi::kErfcC[8]), yb);
      __m256d den_a = ya;
      __m256d den_b = yb;
      for (int j = 0; j < 7; ++j) {
        num_a = _mm256_mul_pd(
            _mm256_add_pd(num_a, _mm256_set1_pd(phi::kErfcC[j])), ya);
        num_b = _mm256_mul_pd(
            _mm256_add_pd(num_b, _mm256_set1_pd(phi::kErfcC[j])), yb);
        den_a = _mm256_mul_pd(
            _mm256_add_pd(den_a, _mm256_set1_pd(phi::kErfcD[j])), ya);
        den_b = _mm256_mul_pd(
            _mm256_add_pd(den_b, _mm256_set1_pd(phi::kErfcD[j])), yb);
      }
      __m256d ratio_a =
          _mm256_div_pd(_mm256_add_pd(num_a, _mm256_set1_pd(phi::kErfcC[7])),
                        _mm256_add_pd(den_a, _mm256_set1_pd(phi::kErfcD[7])));
      __m256d ratio_b =
          _mm256_div_pd(_mm256_add_pd(num_b, _mm256_set1_pd(phi::kErfcC[7])),
                        _mm256_add_pd(den_b, _mm256_set1_pd(phi::kErfcD[7])));
      if ((_mm256_movemask_pd(far_mask_a) |
           _mm256_movemask_pd(far_mask_b)) != 0) {
        const __m256d inv_a = _mm256_div_pd(one, sa);
        const __m256d inv_b = _mm256_div_pd(one, sb);
        __m256d fnum_a = _mm256_mul_pd(_mm256_set1_pd(phi::kTailP[5]), inv_a);
        __m256d fnum_b = _mm256_mul_pd(_mm256_set1_pd(phi::kTailP[5]), inv_b);
        __m256d fden_a = inv_a;
        __m256d fden_b = inv_b;
        for (int j = 0; j < 4; ++j) {
          fnum_a = _mm256_mul_pd(
              _mm256_add_pd(fnum_a, _mm256_set1_pd(phi::kTailP[j])), inv_a);
          fnum_b = _mm256_mul_pd(
              _mm256_add_pd(fnum_b, _mm256_set1_pd(phi::kTailP[j])), inv_b);
          fden_a = _mm256_mul_pd(
              _mm256_add_pd(fden_a, _mm256_set1_pd(phi::kTailQ[j])), inv_a);
          fden_b = _mm256_mul_pd(
              _mm256_add_pd(fden_b, _mm256_set1_pd(phi::kTailQ[j])), inv_b);
        }
        __m256d far_a = _mm256_div_pd(
            _mm256_mul_pd(
                inv_a, _mm256_add_pd(fnum_a, _mm256_set1_pd(phi::kTailP[4]))),
            _mm256_add_pd(fden_a, _mm256_set1_pd(phi::kTailQ[4])));
        __m256d far_b = _mm256_div_pd(
            _mm256_mul_pd(
                inv_b, _mm256_add_pd(fnum_b, _mm256_set1_pd(phi::kTailP[4]))),
            _mm256_add_pd(fden_b, _mm256_set1_pd(phi::kTailQ[4])));
        far_a = _mm256_div_pd(
            _mm256_sub_pd(_mm256_set1_pd(phi::kSqrPi), far_a), ya);
        far_b = _mm256_div_pd(
            _mm256_sub_pd(_mm256_set1_pd(phi::kSqrPi), far_b), yb);
        ratio_a = _mm256_blendv_pd(ratio_a, far_a, far_mask_a);
        ratio_b = _mm256_blendv_pd(ratio_b, far_b, far_mask_b);
      }
      // cvttpd truncates like the scalar int32 cast; clamped y keeps
      // y * 16 < 425 in range (NaN lanes produce garbage, blended away).
      const __m256d ysq_a = _mm256_mul_pd(
          _mm256_cvtepi32_pd(
              _mm256_cvttpd_epi32(_mm256_mul_pd(ya, _mm256_set1_pd(16.0)))),
          _mm256_set1_pd(0.0625));
      const __m256d ysq_b = _mm256_mul_pd(
          _mm256_cvtepi32_pd(
              _mm256_cvttpd_epi32(_mm256_mul_pd(yb, _mm256_set1_pd(16.0)))),
          _mm256_set1_pd(0.0625));
      const __m256d del_a =
          _mm256_mul_pd(_mm256_sub_pd(ya, ysq_a), _mm256_add_pd(ya, ysq_a));
      const __m256d del_b =
          _mm256_mul_pd(_mm256_sub_pd(yb, ysq_b), _mm256_add_pd(yb, ysq_b));
      const __m256d scale_a = _mm256_mul_pd(
          PinnedExpAvx2(_mm256_xor_pd(_mm256_mul_pd(ysq_a, ysq_a), sign)),
          PinnedExpAvx2(_mm256_xor_pd(del_a, sign)));
      const __m256d scale_b = _mm256_mul_pd(
          PinnedExpAvx2(_mm256_xor_pd(_mm256_mul_pd(ysq_b, ysq_b), sign)),
          PinnedExpAvx2(_mm256_xor_pd(del_b, sign)));
      const __m256d half_erfc_a =
          _mm256_mul_pd(half, _mm256_mul_pd(scale_a, ratio_a));
      const __m256d half_erfc_b =
          _mm256_mul_pd(half, _mm256_mul_pd(scale_b, ratio_b));
      phi_tail_a =
          _mm256_blendv_pd(half_erfc_a, _mm256_sub_pd(one, half_erfc_a),
                           _mm256_cmp_pd(za, zero, _CMP_LT_OQ));
      phi_tail_b =
          _mm256_blendv_pd(half_erfc_b, _mm256_sub_pd(one, half_erfc_b),
                           _mm256_cmp_pd(zb, zero, _CMP_LT_OQ));
    }
    __m256d result_a;
    __m256d result_b;
    if (tail_bits_a == 0) {
      result_a = phi_centre_a;
    } else if (centre_bits_a == 0) {
      result_a = phi_tail_a;
    } else {
      result_a = _mm256_blendv_pd(phi_tail_a, phi_centre_a, centre_mask_a);
    }
    if (tail_bits_b == 0) {
      result_b = phi_centre_b;
    } else if (centre_bits_b == 0) {
      result_b = phi_tail_b;
    } else {
      result_b = _mm256_blendv_pd(phi_tail_b, phi_centre_b, centre_mask_b);
    }
    result_a = _mm256_blendv_pd(result_a, one, hi_mask_a);
    result_b = _mm256_blendv_pd(result_b, one, hi_mask_b);
    result_a = _mm256_blendv_pd(result_a, zero, lo_mask_a);
    result_b = _mm256_blendv_pd(result_b, zero, lo_mask_b);
    result_a = _mm256_blendv_pd(result_a, vxa, nan_mask_a);
    result_b = _mm256_blendv_pd(result_b, vxb, nan_mask_b);
    _mm256_storeu_pd(out + i, result_a);
    _mm256_storeu_pd(out + i + 4, result_b);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d nan_mask = _mm256_cmp_pd(vx, vx, _CMP_UNORD_Q);
    const __m256d hi_mask = _mm256_cmp_pd(vx, clamp, _CMP_GT_OQ);
    const __m256d lo_mask = _mm256_cmp_pd(vx, neg_clamp, _CMP_LT_OQ);
    __m256d xc = _mm256_blendv_pd(vx, clamp, hi_mask);
    xc = _mm256_blendv_pd(xc, neg_clamp, lo_mask);
    const __m256d z = _mm256_div_pd(_mm256_xor_pd(xc, sign), sqrt2);
    const __m256d y = _mm256_andnot_pd(sign, z);
    const __m256d s = _mm256_mul_pd(z, z);
    const __m256d centre_mask =
        _mm256_cmp_pd(y, _mm256_set1_pd(phi::kErfSwitch), _CMP_LE_OQ);
    const __m256d far_mask =
        _mm256_cmp_pd(y, _mm256_set1_pd(phi::kTailSwitch), _CMP_GT_OQ);
    const int centre_bits = _mm256_movemask_pd(centre_mask);
    const int tail_bits = (~centre_bits) & 0xF;  // NaN lanes land here.
    __m256d phi_centre = zero;
    __m256d phi_tail = zero;
    if (centre_bits != 0) {
      __m256d num = _mm256_mul_pd(_mm256_set1_pd(phi::kErfA[4]), s);
      __m256d den = s;
      for (int j = 0; j < 3; ++j) {
        num =
            _mm256_mul_pd(_mm256_add_pd(num, _mm256_set1_pd(phi::kErfA[j])), s);
        den =
            _mm256_mul_pd(_mm256_add_pd(den, _mm256_set1_pd(phi::kErfB[j])), s);
      }
      const __m256d erf = _mm256_div_pd(
          _mm256_mul_pd(z, _mm256_add_pd(num, _mm256_set1_pd(phi::kErfA[3]))),
          _mm256_add_pd(den, _mm256_set1_pd(phi::kErfB[3])));
      phi_centre = _mm256_mul_pd(half, _mm256_sub_pd(one, erf));
    }
    if (tail_bits != 0) {
      __m256d num = _mm256_mul_pd(_mm256_set1_pd(phi::kErfcC[8]), y);
      __m256d den = y;
      for (int j = 0; j < 7; ++j) {
        num = _mm256_mul_pd(_mm256_add_pd(num, _mm256_set1_pd(phi::kErfcC[j])),
                            y);
        den = _mm256_mul_pd(_mm256_add_pd(den, _mm256_set1_pd(phi::kErfcD[j])),
                            y);
      }
      __m256d ratio =
          _mm256_div_pd(_mm256_add_pd(num, _mm256_set1_pd(phi::kErfcC[7])),
                        _mm256_add_pd(den, _mm256_set1_pd(phi::kErfcD[7])));
      if (_mm256_movemask_pd(far_mask) != 0) {
        const __m256d inv = _mm256_div_pd(one, s);
        __m256d fnum = _mm256_mul_pd(_mm256_set1_pd(phi::kTailP[5]), inv);
        __m256d fden = inv;
        for (int j = 0; j < 4; ++j) {
          fnum = _mm256_mul_pd(
              _mm256_add_pd(fnum, _mm256_set1_pd(phi::kTailP[j])), inv);
          fden = _mm256_mul_pd(
              _mm256_add_pd(fden, _mm256_set1_pd(phi::kTailQ[j])), inv);
        }
        __m256d far = _mm256_div_pd(
            _mm256_mul_pd(inv,
                          _mm256_add_pd(fnum, _mm256_set1_pd(phi::kTailP[4]))),
            _mm256_add_pd(fden, _mm256_set1_pd(phi::kTailQ[4])));
        far = _mm256_div_pd(_mm256_sub_pd(_mm256_set1_pd(phi::kSqrPi), far),
                            y);
        ratio = _mm256_blendv_pd(ratio, far, far_mask);
      }
      const __m256d ysq = _mm256_mul_pd(
          _mm256_cvtepi32_pd(
              _mm256_cvttpd_epi32(_mm256_mul_pd(y, _mm256_set1_pd(16.0)))),
          _mm256_set1_pd(0.0625));
      const __m256d del =
          _mm256_mul_pd(_mm256_sub_pd(y, ysq), _mm256_add_pd(y, ysq));
      const __m256d scale = _mm256_mul_pd(
          PinnedExpAvx2(_mm256_xor_pd(_mm256_mul_pd(ysq, ysq), sign)),
          PinnedExpAvx2(_mm256_xor_pd(del, sign)));
      const __m256d half_erfc =
          _mm256_mul_pd(half, _mm256_mul_pd(scale, ratio));
      phi_tail =
          _mm256_blendv_pd(half_erfc, _mm256_sub_pd(one, half_erfc),
                           _mm256_cmp_pd(z, zero, _CMP_LT_OQ));
    }
    __m256d result;
    if (tail_bits == 0) {
      result = phi_centre;
    } else if (centre_bits == 0) {
      result = phi_tail;
    } else {
      result = _mm256_blendv_pd(phi_tail, phi_centre, centre_mask);
    }
    result = _mm256_blendv_pd(result, one, hi_mask);
    result = _mm256_blendv_pd(result, zero, lo_mask);
    result = _mm256_blendv_pd(result, vx, nan_mask);
    _mm256_storeu_pd(out + i, result);
  }
  NormalCdfBatchScalar(x + i, n - i, out + i);
}

}  // namespace

#endif  // EQIMPACT_AVX2_LANES

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void IncomeCode(const double* income, size_t n, double threshold,
                double* code) {
#if defined(EQIMPACT_AVX2_LANES)
  if (base::UseAvx2Lanes()) {
    IncomeCodeAvx2(income, n, threshold, code);
    return;
  }
#endif
  IncomeCodeScalar(income, n, threshold, code);
}

void ScoreSweep(const double* income, const double* adr, size_t n,
                const ScoreParams& params, double* code,
                unsigned char* approved) {
#if defined(EQIMPACT_AVX2_LANES)
  if (base::UseAvx2Lanes()) {
    ScoreSweepAvx2(income, adr, n, params, code, approved);
    return;
  }
#endif
  ScoreSweepScalar(income, adr, n, params, code, approved);
}

void SurplusShare(const double* income, size_t n, double income_multiple,
                  double living_cost, double annual_rate, double* out) {
#if defined(EQIMPACT_AVX2_LANES)
  if (base::UseAvx2Lanes()) {
    SurplusShareAvx2(income, n, income_multiple, living_cost, annual_rate,
                     out);
    return;
  }
#endif
  SurplusShareScalar(income, n, income_multiple, living_cost, annual_rate,
                     out);
}

void GuardedRatio(const double* num, const double* den, size_t n,
                  double* out) {
#if defined(EQIMPACT_AVX2_LANES)
  if (base::UseAvx2Lanes()) {
    GuardedRatioAvx2(num, den, n, out);
    return;
  }
#endif
  GuardedRatioScalar(num, den, n, out);
}

void SigmoidBatch(const double* t, size_t n, double* out) {
#if defined(EQIMPACT_AVX2_LANES)
  if (base::UseAvx2Lanes()) {
    SigmoidBatchAvx2(t, n, out);
    return;
  }
#endif
  SigmoidBatchScalar(t, n, out);
}

void NormalCdfBatch(const double* x, size_t n, double* out) {
#if defined(EQIMPACT_AVX2_LANES)
  if (base::UseAvx2Lanes()) {
    NormalCdfAvx2(x, n, out);
    return;
  }
#endif
  NormalCdfBatchScalar(x, n, out);
}

void LinearPredictor2(const double* rows, size_t n, double w0, double w1,
                      double bias, bool add_bias, double* out) {
#if defined(EQIMPACT_AVX2_LANES)
  if (base::UseAvx2Lanes()) {
    LinearPredictor2Avx2(rows, n, w0, w1, bias, add_bias, out);
    return;
  }
#endif
  LinearPredictor2Scalar(rows, n, w0, w1, bias, add_bias, out);
}

}  // namespace kernels
}  // namespace runtime
}  // namespace eqimpact
