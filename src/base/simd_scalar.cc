#include "base/simd_scalar.h"

#include <atomic>
#include <cstdint>
#include <cstring>

namespace eqimpact {
namespace base {
namespace {

std::atomic<bool> g_force_scalar{false};

// 2^e for |e| <= ~540 (always a normal double here: the two-factor
// split below keeps each factor's exponent in range even when the
// product is subnormal or zero).
inline double Pow2i(int32_t e) {
  const uint64_t bits = static_cast<uint64_t>(e + 1023) << 52;
  double result;
  std::memcpy(&result, &bits, sizeof(result));
  return result;
}

// The pinned exp of base/simd_scalar.h's contract. Callers guarantee a
// non-NaN argument in [-750, 5] (the CDF clamps its input first), so
// the int32 cast of n is always in range.
inline double PinnedExp(double v) {
  const double shifted = v * phi::kExpLog2E + phi::kExpShift;
  const double n = shifted - phi::kExpShift;
  double r = v - n * phi::kExpLn2Hi;
  r = r - n * phi::kExpLn2Lo;
  // Degree-13 polynomial in Estrin form rather than Horner: the longest
  // rounding/latency chain shrinks from 13 mul+add pairs to ~5 levels,
  // which is what makes the vector lanes (which replay this exact
  // operation order) latency-bound no longer. |r| <= ln2 / 2, so every
  // partial stays benign.
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  const double b0 = phi::kExpCoeff[0] + phi::kExpCoeff[1] * r;
  const double b1 = phi::kExpCoeff[2] + phi::kExpCoeff[3] * r;
  const double b2 = phi::kExpCoeff[4] + phi::kExpCoeff[5] * r;
  const double b3 = phi::kExpCoeff[6] + phi::kExpCoeff[7] * r;
  const double b4 = phi::kExpCoeff[8] + phi::kExpCoeff[9] * r;
  const double b5 = phi::kExpCoeff[10] + phi::kExpCoeff[11] * r;
  const double b6 = phi::kExpCoeff[12] + phi::kExpCoeff[13] * r;
  const double q0 = b0 + b1 * r2;
  const double q1 = b2 + b3 * r2;
  const double q2 = b4 + b5 * r2;
  const double h0 = q0 + q1 * r4;
  const double h1 = q2 + b6 * r4;
  const double p = h0 + h1 * r8;
  const int32_t ni = static_cast<int32_t>(n);
  const int32_t e1 = ni >> 1;  // Arithmetic shift, matching the lanes.
  const int32_t e2 = ni - e1;
  return (p * Pow2i(e1)) * Pow2i(e2);
}

}  // namespace

void SetSimdForceScalarForTesting(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool UseAvx2Lanes() {
#if defined(EQIMPACT_AVX2_LANES)
  static const bool cpu_has_avx2 = __builtin_cpu_supports("avx2");
  return cpu_has_avx2 && !g_force_scalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

double NormalCdfScalar(double x) {
  // NaN first: the arithmetic below would propagate it, but the int32
  // cast in the exp scaling would be UB on a NaN-poisoned value. The
  // vector lanes blend the original input bits into NaN lanes, matching
  // this return exactly (payload, sign and signalling bit included).
  if (x != x) return x;
  if (x > phi::kClamp) return 1.0;
  if (x < -phi::kClamp) return 0.0;
  // The argument is formed exactly as the historical libm reference
  // (0.5 * erfc(-x / sqrt 2)) formed it, so the two implementations see
  // the identically-rounded erfc argument and the ulp gap stays the
  // rational approximation's own (see kMaxUlpVsLibm).
  const double z = -x / phi::kSqrt2;
  const double y = z < 0.0 ? -z : z;
  const double s = z * z;
  if (y <= phi::kErfSwitch) {
    // Centre: Phi = 0.5 * (1 - erf(z)); keeps Phi(+-0) exactly 0.5.
    double num = phi::kErfA[4] * s;
    double den = s;
    for (int i = 0; i < 3; ++i) {
      num = (num + phi::kErfA[i]) * s;
      den = (den + phi::kErfB[i]) * s;
    }
    const double erf = z * (num + phi::kErfA[3]) / (den + phi::kErfB[3]);
    return 0.5 * (1.0 - erf);
  }
  double ratio;
  if (y <= phi::kTailSwitch) {
    double num = phi::kErfcC[8] * y;
    double den = y;
    for (int i = 0; i < 7; ++i) {
      num = (num + phi::kErfcC[i]) * y;
      den = (den + phi::kErfcD[i]) * y;
    }
    ratio = (num + phi::kErfcC[7]) / (den + phi::kErfcD[7]);
  } else {
    const double inv = 1.0 / s;
    double num = phi::kTailP[5] * inv;
    double den = inv;
    for (int i = 0; i < 4; ++i) {
      num = (num + phi::kTailP[i]) * inv;
      den = (den + phi::kTailQ[i]) * inv;
    }
    ratio = inv * (num + phi::kTailP[4]) / (den + phi::kTailQ[4]);
    ratio = (phi::kSqrPi - ratio) / y;
  }
  // Cody's split of exp(-y^2) into exp(-ysq^2) * exp(-del) with ysq a
  // 4-fraction-bit truncation of y: both exp arguments are then (near)
  // exact, which is what keeps the deep tail to a few ulp. The int32
  // truncation is in range (y <= kClamp / sqrt 2, so y * 16 < 425) and
  // identical to the lanes' cvttpd.
  const double ysq = static_cast<double>(static_cast<int32_t>(y * 16.0)) *
                     0.0625;
  const double del = (y - ysq) * (y + ysq);
  const double scale = PinnedExp(-ysq * ysq) * PinnedExp(-del);
  const double erfc_y = scale * ratio;
  const double half = 0.5 * erfc_y;
  // Unfold the sign: erfc(z) = 2 - erfc(|z|) for z < 0, i.e. x > 0.
  return z < 0.0 ? 1.0 - half : half;
}

}  // namespace base
}  // namespace eqimpact
