#include "markov/coupling.h"

#include <cmath>

#include "base/check.h"
#include "rng/categorical.h"

namespace eqimpact {
namespace markov {

CouplingResult SynchronousCoupling(const AffineIfs& ifs,
                                   const linalg::Vector& x0,
                                   const linalg::Vector& y0, size_t steps,
                                   double threshold, rng::Random* random) {
  EQIMPACT_CHECK_EQ(x0.size(), ifs.dimension());
  EQIMPACT_CHECK_EQ(y0.size(), ifs.dimension());
  EQIMPACT_CHECK_GT(steps, 0u);
  EQIMPACT_CHECK_GT(threshold, 0.0);

  std::vector<double> probabilities(ifs.num_maps());
  for (size_t e = 0; e < ifs.num_maps(); ++e) {
    probabilities[e] = ifs.probability(e);
  }

  CouplingResult result;
  result.distances.reserve(steps + 1);
  linalg::Vector x = x0;
  linalg::Vector y = y0;
  double initial_distance = (x - y).Norm2();
  result.distances.push_back(initial_distance);
  result.coupling_time = steps + 1;

  for (size_t k = 1; k <= steps; ++k) {
    size_t e = rng::SampleCategorical(probabilities, random);
    x = ifs.map(e)(x);
    y = ifs.map(e)(y);  // Same map: the synchronous coupling.
    double distance = (x - y).Norm2();
    result.distances.push_back(distance);
    if (!result.coupled && distance <= threshold) {
      result.coupled = true;
      result.coupling_time = k;
    }
  }
  result.final_distance = result.distances.back();
  if (initial_distance > 0.0 && result.final_distance > 0.0) {
    result.per_step_rate = std::pow(result.final_distance / initial_distance,
                                    1.0 / static_cast<double>(steps));
  } else if (result.final_distance == 0.0) {
    result.per_step_rate = 0.0;
  }
  return result;
}

}  // namespace markov
}  // namespace eqimpact
