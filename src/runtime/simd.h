#ifndef EQIMPACT_RUNTIME_SIMD_H_
#define EQIMPACT_RUNTIME_SIMD_H_

#include <cstddef>

/// \file
/// SIMD backend reporting for the kernel sublayer.
///
/// The library's elementwise hot paths (runtime/kernels.h, plus
/// rng::Pcg32::FillUniform) and the observers' four-step fold
/// (stats::AdrAccumulator::AddCrossSections, one accumulator cell per
/// lane, so it reassociates nothing) each ship a scalar reference
/// implementation and one vector lane, AVX2 (4 x double). The AVX2 lane
/// is compiled on x86-64 with GCC or Clang through the `target("avx2")`
/// function attribute, so default builds carry it, and it is entered
/// only after a one-time CPUID check (base::UseAvx2Lanes). Every other
/// target, and any build with -DEQIMPACT_FORCE_SCALAR=ON, runs the
/// scalar reference only. There is exactly one vector lane so that
/// every lane that ships runs in CI: the AVX2 runners execute it, and
/// the force-scalar switch lets one test binary compare it with the
/// reference.
///
/// Determinism contract: the vector lane is bit-for-bit the scalar
/// reference on every input — NaN payloads, infinities, subnormals,
/// signed zeros, and every tail length included. All kernels are purely
/// elementwise (no reductions are ever reassociated), so simulation
/// digests are invariant across backends; tests/simd_test.cc enforces
/// this, and the CI build matrix runs the full suite with the vector
/// lane compiled out and with -march=native. The whole project compiles
/// with -ffp-contract=off so a vector lane's explicit mul+add sequence
/// can never diverge from an FMA-contracted scalar reference.
///
/// Adding a kernel: implement the scalar reference in
/// runtime/kernels.cc, add an AVX2 lane inside the EQIMPACT_AVX2_LANES
/// block, dispatch on base::UseAvx2Lanes() in the public entry, and
/// extend the bitwise equivalence suite in tests/simd_test.cc with
/// adversarial inputs and every tail remainder. Kernels must stay
/// elementwise; anything that reduces belongs in the ordered-reduction
/// machinery of runtime/parallel_for.h instead.

namespace eqimpact {
namespace runtime {
namespace simd {

/// Where a kernel call runs: the scalar reference or the AVX2 lane.
enum class Backend {
  kScalar,
  kAvx2,  // x86-64 with AVX2: 4 x double (entered after a CPUID check).
};

/// Widest backend this build could ever dispatch to (ignores the CPU
/// and the force-scalar switch).
Backend CompiledBackend();

/// Backend the kernels dispatch to right now: kAvx2 exactly when
/// base::UseAvx2Lanes() holds.
Backend ActiveBackend();

/// Lane width of `backend` in doubles (1 for scalar).
size_t LaneWidth(Backend backend);

/// Stable lower-case name ("scalar", "avx2") for logging and the bench
/// JSON.
const char* BackendName(Backend backend);

}  // namespace simd
}  // namespace runtime
}  // namespace eqimpact

#endif  // EQIMPACT_RUNTIME_SIMD_H_
