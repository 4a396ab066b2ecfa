#include "graph/digraph.h"

#include <algorithm>

#include "base/check.h"

namespace eqimpact {
namespace graph {

Digraph::Digraph(size_t num_vertices) : adjacency_(num_vertices) {}

size_t Digraph::AddEdge(size_t from, size_t to) {
  EQIMPACT_CHECK_LT(from, adjacency_.size());
  EQIMPACT_CHECK_LT(to, adjacency_.size());
  adjacency_[from].push_back(to);
  return num_edges_++;
}

const std::vector<size_t>& Digraph::Successors(size_t v) const {
  EQIMPACT_CHECK_LT(v, adjacency_.size());
  return adjacency_[v];
}

bool Digraph::HasEdge(size_t from, size_t to) const {
  EQIMPACT_CHECK_LT(from, adjacency_.size());
  EQIMPACT_CHECK_LT(to, adjacency_.size());
  const std::vector<size_t>& successors = adjacency_[from];
  return std::find(successors.begin(), successors.end(), to) !=
         successors.end();
}

}  // namespace graph
}  // namespace eqimpact
