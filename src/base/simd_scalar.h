#ifndef EQIMPACT_BASE_SIMD_SCALAR_H_
#define EQIMPACT_BASE_SIMD_SCALAR_H_

/// \file
/// The process-wide decision whether vectorized kernels run their AVX2
/// lanes or their scalar references (with a test toggle that pins the
/// references), and the pinned scalar reference of the standard normal
/// CDF that the kernel layer vectorizes.
///
/// The kernel layer (runtime/simd.h + runtime/kernels.h,
/// rng::Pcg32::FillUniform, and the four-step fold of
/// stats::AdrAccumulator) promises that the vector lanes are bit-for-bit
/// the scalar reference on every input. The fold lane reassociates
/// nothing: each of its lanes is one accumulator cell, folding that
/// cell's values in the scalar order. This switch is how that promise
/// is *checked*: the EQIMPACT_FORCE_SCALAR compile definition (CMake
/// option of the same name) removes the vector lanes from the build
/// entirely, and the runtime toggle lets one test binary run the same
/// workload through both paths and compare digests.
///
/// It lives in `base` — below `rng`, `stats` and `runtime` in the layer
/// graph — because the PCG batch fill (rng), the fold (stats) and the
/// elementwise kernels (runtime) sit in different layers but must make
/// one decision. The
/// normal CDF reference lives here for the same reason: rng (the scalar
/// entry `rng::StandardNormalCdf`) and runtime (the vector lanes of
/// `kernels::NormalCdfBatch`) sit in different layers but must evaluate
/// one function, operation for operation.

// The vector lanes are AVX2 only. They need GCC or Clang on x86-64 (for
// the target("avx2") function attribute and __builtin_cpu_supports), and
// EQIMPACT_FORCE_SCALAR compiles them out. Every other target runs the
// scalar references.
#if !defined(EQIMPACT_FORCE_SCALAR) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define EQIMPACT_AVX2_LANES 1
#endif

namespace eqimpact {
namespace base {

/// True when kernels should enter their AVX2 lanes: the build compiled
/// them (EQIMPACT_AVX2_LANES), the CPU supports AVX2 (checked once), and
/// no test pinned the scalar references (SetSimdForceScalarForTesting).
bool UseAvx2Lanes();

/// Runtime toggle for tests (a no-op in EQIMPACT_FORCE_SCALAR builds,
/// which are scalar regardless). Takes effect for kernel calls that
/// start after it returns; flip it only between single-threaded phases,
/// never while kernels may be running.
void SetSimdForceScalarForTesting(bool force);

/// The library's standard normal CDF: Phi(x) = 0.5 * erfc(-x / sqrt 2),
/// with erfc evaluated by Cody's three-interval rational approximation
/// (CALERF, TOMS 715) over a pinned Cody-Waite exp — *not* libm, whose
/// erfc/exp vary across runtimes and cannot be vectorized bitwise. This
/// function is THE reference: `rng::StandardNormalCdf` is this function,
/// and every vector lane of `runtime::kernels::NormalCdfBatch` is
/// bit-for-bit equal to it on every input.
///
/// Accuracy contract (checked by tests/simd_test.cc over the whole
/// clamp span): within [-phi::kClamp, phi::kClamp] the
/// result is within phi::kMaxUlpVsLibm ulp of glibc's
/// 0.5 * std::erfc(-x / sqrt 2) (measured max: 9, deep in the lower
/// tail; 2 in the central +-5 range). Outside, the result
/// saturates to exactly 0.0 / 1.0 (true Phi is below 1e-307 there, so
/// the absolute error of the saturation is < 1e-307). NaN inputs return
/// the input bits unchanged; Phi(+-0) is exactly 0.5.
double NormalCdfScalar(double x);

namespace phi {

/// Saturation bound: |x| > kClamp returns exact 0/1 (see above).
constexpr double kClamp = 37.5;
/// Ulp bound of NormalCdfScalar against libm within the clamp, with
/// margin over the measured maximum of 9 (documented in README.md and
/// checked by tests/simd_test.cc; tests/golden_test.cc pins outputs).
constexpr int kMaxUlpVsLibm = 16;

// --- Shared constants of the reference and its vector lanes. The lanes
// in runtime/kernels.cc replay the scalar evaluation below operation for
// operation on every lane (branches become blends), so they must read
// the exact same constants.

constexpr double kSqrt2 = 1.4142135623730950488;  // z = -x / kSqrt2.
/// erf rational for |z| <= kErfSwitch, erfc(|z|) rationals above, split
/// again at kTailSwitch (Cody's 0.46875 / 4.0 intervals).
constexpr double kErfSwitch = 0.46875;
constexpr double kTailSwitch = 4.0;
constexpr double kSqrPi = 5.6418958354775628695e-1;  // 1 / sqrt(pi).

// Cody's CALERF coefficients (W. J. Cody, "Rational Chebyshev
// approximation for the error function", Math. Comp. 23 (1969); netlib
// erf.f): erf(z) = z * R_A(z^2) on the centre, erfc(y) =
// exp(-y^2) * R_C(y) on (0.46875, 4], erfc(y) =
// exp(-y^2)/y * (1/sqrt(pi) + R_P(1/y^2)/y^2) beyond.
constexpr double kErfA[5] = {3.16112374387056560e00, 1.13864154151050156e02,
                             3.77485237685302021e02, 3.20937758913846947e03,
                             1.85777706184603153e-1};
constexpr double kErfB[4] = {2.36012909523441209e01, 2.44024637934444173e02,
                             1.28261652607737228e03, 2.84423683343917062e03};
constexpr double kErfcC[9] = {5.64188496988670089e-1, 8.88314979438837594e00,
                              6.61191906371416295e01, 2.98635138197400131e02,
                              8.81952221241769090e02, 1.71204761263407058e03,
                              2.05107837782607147e03, 1.23033935479799725e03,
                              2.15311535474403846e-8};
constexpr double kErfcD[8] = {1.57449261107098347e01, 1.17693950891312499e02,
                              5.37181101862009858e02, 1.62138957456669019e03,
                              3.29079923573345963e03, 4.36261909014324716e03,
                              3.43936767414372164e03, 1.23033935480374942e03};
constexpr double kTailP[6] = {3.05326634961232344e-1, 3.60344899949804439e-1,
                              1.25781726111229246e-1, 1.60837851487422766e-2,
                              6.58749161529837803e-4, 1.63153871373020978e-2};
constexpr double kTailQ[5] = {2.56852019228982242e00, 1.87295284992346047e00,
                              5.27905102951428412e-1, 6.05183413124413191e-2,
                              2.33520497626869185e-3};

// --- Pinned exp (Cody-Waite): n = nearest(v * log2 e) via the
// round-to-even magic shift (the shifted-add trick rounds identically in
// scalar and vector code, with no rounding-mode intrinsic), r = v - n ln 2 in
// two pieces, a degree-13 Taylor polynomial for exp(r) evaluated in
// Estrin order (short dependency chains; the lanes replay the same
// order), and a 2^n scale built from exponent bits in two factors (n/2
// each) so gradual underflow stays exact. |v| stays <= ~710 in every
// caller: the CDF clamps first.
constexpr double kExpLog2E = 0x1.71547652b82fep+0;
constexpr double kExpShift = 6755399441055744.0;  // 1.5 * 2^52.
constexpr double kExpLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kExpLn2Lo = 0x1.a39ef35793c76p-33;
constexpr int kExpDegree = 13;
constexpr double kExpCoeff[14] = {
    0x1.0000000000000p+0,  0x1.0000000000000p+0,  0x1.0000000000000p-1,
    0x1.5555555555555p-3,  0x1.5555555555555p-5,  0x1.1111111111111p-7,
    0x1.6c16c16c16c17p-10, 0x1.a01a01a01a01ap-13, 0x1.a01a01a01a01ap-16,
    0x1.71de3a556c734p-19, 0x1.27e4fb7789f5cp-22, 0x1.ae64567f544e4p-26,
    0x1.1eed8eff8d898p-29, 0x1.6124613a86d09p-33};

}  // namespace phi
}  // namespace base
}  // namespace eqimpact

#endif  // EQIMPACT_BASE_SIMD_SCALAR_H_
