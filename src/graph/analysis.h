#ifndef EQIMPACT_GRAPH_ANALYSIS_H_
#define EQIMPACT_GRAPH_ANALYSIS_H_

#include <cstddef>
#include <vector>

#include "graph/digraph.h"

namespace eqimpact {
namespace graph {

/// Strongly connected components of `g`, found with Tarjan's algorithm
/// (iterative, so deep graphs cannot overflow the stack).
///
/// `component_of[v]` gives the component index of vertex `v`; components
/// are numbered in reverse topological order of the condensation (i.e. a
/// component only has edges into lower-numbered... see note below).
struct SccResult {
  /// Component index per vertex.
  std::vector<size_t> component_of;
  /// Vertices per component.
  std::vector<std::vector<size_t>> components;
};

/// Computes the strongly connected components of `g`.
SccResult StronglyConnectedComponents(const Digraph& g);

/// True if `g` is strongly connected (one SCC covering every vertex).
/// This is the paper's irreducibility requirement for the Markov system's
/// graph (Section VI: "when the graph G = (X, E) is strongly connected,
/// there exists an invariant measure").
bool IsStronglyConnected(const Digraph& g);

/// Period of a strongly connected graph: the gcd of all cycle lengths.
/// CHECK-fails if `g` is not strongly connected or has no edges.
/// A strongly connected graph is *aperiodic* iff its period is 1; for the
/// boolean adjacency matrix that is primitivity (some power entry-wise
/// positive), the paper's Section VI certificate for a unique, attractive
/// invariant measure.
size_t Period(const Digraph& g);

}  // namespace graph
}  // namespace eqimpact

#endif  // EQIMPACT_GRAPH_ANALYSIS_H_
