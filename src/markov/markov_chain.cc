#include "markov/markov_chain.h"

#include <cmath>

#include "base/check.h"
#include "graph/analysis.h"
#include "linalg/eigen.h"
#include "rng/categorical.h"

namespace eqimpact {
namespace markov {

MarkovChain::MarkovChain(linalg::Matrix transition)
    : transition_(std::move(transition)) {
  EQIMPACT_CHECK_EQ(transition_.rows(), transition_.cols());
  EQIMPACT_CHECK_GT(transition_.rows(), 0u);
  EQIMPACT_CHECK(transition_.IsRowStochastic(1e-9));
}

graph::Digraph MarkovChain::SupportGraph() const {
  graph::Digraph g(num_states());
  for (size_t r = 0; r < num_states(); ++r) {
    for (size_t c = 0; c < num_states(); ++c) {
      if (transition_(r, c) > 0.0) g.AddEdge(r, c);
    }
  }
  return g;
}

bool MarkovChain::IsIrreducible() const {
  return graph::IsStronglyConnected(SupportGraph());
}

size_t MarkovChain::Period() const {
  graph::Digraph g = SupportGraph();
  EQIMPACT_CHECK(graph::IsStronglyConnected(g));
  return graph::Period(g);
}

std::optional<linalg::Vector> MarkovChain::StationaryDistribution() const {
  return linalg::StationaryDistribution(transition_);
}

linalg::Vector MarkovChain::Propagate(const linalg::Vector& initial,
                                      unsigned steps) const {
  EQIMPACT_CHECK_EQ(initial.size(), num_states());
  linalg::Vector distribution = initial;
  for (unsigned k = 0; k < steps; ++k) {
    distribution = linalg::MultiplyLeft(distribution, transition_);
  }
  return distribution;
}

size_t MarkovChain::Step(size_t state, rng::Random* random) const {
  EQIMPACT_CHECK_LT(state, num_states());
  std::vector<double> row(num_states());
  for (size_t c = 0; c < num_states(); ++c) row[c] = transition_(state, c);
  return rng::SampleCategorical(row, random);
}

std::vector<size_t> MarkovChain::SimulatePath(size_t initial, size_t steps,
                                              rng::Random* random) const {
  EQIMPACT_CHECK_LT(initial, num_states());
  std::vector<size_t> path;
  path.reserve(steps + 1);
  path.push_back(initial);
  size_t state = initial;
  for (size_t k = 0; k < steps; ++k) {
    state = Step(state, random);
    path.push_back(state);
  }
  return path;
}

linalg::Vector MarkovChain::EmpiricalOccupation(size_t initial, size_t steps,
                                                size_t burn_in,
                                                rng::Random* random) const {
  EQIMPACT_CHECK_GT(steps, burn_in);
  std::vector<size_t> path = SimulatePath(initial, steps, random);
  linalg::Vector occupation(num_states());
  size_t counted = 0;
  for (size_t k = burn_in; k < path.size(); ++k) {
    occupation[path[k]] += 1.0;
    ++counted;
  }
  occupation /= static_cast<double>(counted);
  return occupation;
}

double TotalVariationDistance(const linalg::Vector& p,
                              const linalg::Vector& q) {
  EQIMPACT_CHECK_EQ(p.size(), q.size());
  double sum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) sum += std::fabs(p[i] - q[i]);
  return 0.5 * sum;
}

}  // namespace markov
}  // namespace eqimpact
