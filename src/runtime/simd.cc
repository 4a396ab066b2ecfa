#include "runtime/simd.h"

#include "base/simd_scalar.h"

namespace eqimpact {
namespace runtime {
namespace simd {

Backend CompiledBackend() {
#if defined(EQIMPACT_AVX2_LANES)
  return Backend::kAvx2;
#else
  return Backend::kScalar;
#endif
}

Backend ActiveBackend() {
  return base::UseAvx2Lanes() ? Backend::kAvx2 : Backend::kScalar;
}

size_t LaneWidth(Backend backend) { return backend == Backend::kAvx2 ? 4 : 1; }

const char* BackendName(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

}  // namespace simd
}  // namespace runtime
}  // namespace eqimpact
