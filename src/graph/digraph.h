#ifndef EQIMPACT_GRAPH_DIGRAPH_H_
#define EQIMPACT_GRAPH_DIGRAPH_H_

#include <cstddef>
#include <vector>

namespace eqimpact {
namespace graph {

/// Directed multigraph on vertices {0, ..., n-1}.
///
/// This is the graph G = (V, E) underlying a Markov system (paper
/// appendix / Figure 6): vertices are the cells of the state-space
/// partition, edges carry the maps w_e. Parallel edges and self-loops are
/// allowed; the structural analyses (connectivity, period) only depend on
/// the adjacency relation.
class Digraph {
 public:
  /// Graph with `num_vertices` vertices and no edges.
  explicit Digraph(size_t num_vertices);

  /// Adds a directed edge from `from` to `to`; returns its edge id.
  /// CHECK-fails on out-of-range vertices.
  size_t AddEdge(size_t from, size_t to);

  size_t num_vertices() const { return adjacency_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Successors of `v` (with multiplicity, in insertion order).
  const std::vector<size_t>& Successors(size_t v) const;

  /// True if at least one edge `from` -> `to` exists.
  bool HasEdge(size_t from, size_t to) const;

 private:
  std::vector<std::vector<size_t>> adjacency_;
  size_t num_edges_ = 0;
};

}  // namespace graph
}  // namespace eqimpact

#endif  // EQIMPACT_GRAPH_DIGRAPH_H_
