#include "graph/analysis.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"

namespace eqimpact {
namespace graph {

SccResult StronglyConnectedComponents(const Digraph& g) {
  const size_t n = g.num_vertices();
  constexpr size_t kUnvisited = static_cast<size_t>(-1);

  SccResult result;
  result.component_of.assign(n, kUnvisited);

  std::vector<size_t> index(n, kUnvisited);
  std::vector<size_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  size_t next_index = 0;

  // Explicit DFS frames: (vertex, next successor position).
  struct Frame {
    size_t vertex;
    size_t edge_pos;
  };
  std::vector<Frame> dfs;

  for (size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    dfs.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const std::vector<size_t>& successors = g.Successors(frame.vertex);
      if (frame.edge_pos < successors.size()) {
        size_t w = successors[frame.edge_pos++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          dfs.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[frame.vertex] = std::min(lowlink[frame.vertex], index[w]);
        }
      } else {
        size_t v = frame.vertex;
        dfs.pop_back();
        if (!dfs.empty()) {
          lowlink[dfs.back().vertex] =
              std::min(lowlink[dfs.back().vertex], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          // v is the root of an SCC: pop it off the Tarjan stack.
          std::vector<size_t> component;
          while (true) {
            size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            result.component_of[w] = result.components.size();
            component.push_back(w);
            if (w == v) break;
          }
          result.components.push_back(std::move(component));
        }
      }
    }
  }
  return result;
}

bool IsStronglyConnected(const Digraph& g) {
  if (g.num_vertices() == 0) return false;
  return StronglyConnectedComponents(g).components.size() == 1;
}

size_t Period(const Digraph& g) {
  EQIMPACT_CHECK(IsStronglyConnected(g));
  EQIMPACT_CHECK_GT(g.num_edges(), 0u);
  const size_t n = g.num_vertices();

  // BFS levels from vertex 0; every edge (u, v) closes a pseudo-cycle of
  // length level[u] + 1 - level[v], and the period is the gcd of these.
  constexpr long long kUnset = -1;
  std::vector<long long> level(n, kUnset);
  std::vector<size_t> queue;
  queue.push_back(0);
  level[0] = 0;
  size_t g_period = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    size_t u = queue[head];
    for (size_t v : g.Successors(u)) {
      if (level[v] == kUnset) {
        level[v] = level[u] + 1;
        queue.push_back(v);
      } else {
        long long delta = level[u] + 1 - level[v];
        if (delta != 0) {
          g_period = std::gcd(g_period, static_cast<size_t>(
                                            delta < 0 ? -delta : delta));
        }
      }
    }
  }
  // A strongly connected graph with edges always has at least one cycle,
  // so some non-zero delta was found.
  EQIMPACT_CHECK_GT(g_period, 0u);
  return g_period;
}

}  // namespace graph
}  // namespace eqimpact
