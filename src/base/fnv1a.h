#ifndef EQIMPACT_BASE_FNV1A_H_
#define EQIMPACT_BASE_FNV1A_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace eqimpact {
namespace base {

/// Order-dependent FNV-1a mixer over 64-bit words — the library's
/// determinism-digest primitive (sim::ExperimentDigest, sim::SweepDigest,
/// the pins of tests/golden_test.cc). Values must be mixed in a fixed slot
/// order for equal results to produce equal digests — slot order is part
/// of the determinism contract. Doubles are mixed by bit pattern, so any
/// bitwise difference changes the digest.
class Fnv1a {
 public:
  void Mix(uint64_t v) {
    hash_ ^= v;
    hash_ *= 1099511628211ULL;
  }
  void MixDouble(double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value), "need 64-bit double");
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  void MixSeries(const std::vector<double>& series) {
    for (double value : series) MixDouble(value);
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace base
}  // namespace eqimpact

#endif  // EQIMPACT_BASE_FNV1A_H_
