#ifndef ESD_GRAPH_CONNECTIVITY_H_
#define ESD_GRAPH_CONNECTIVITY_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace esd::graph {

/// Result of a connected-components decomposition.
struct Components {
  /// Component label per vertex, 0 .. num_components-1.
  std::vector<uint32_t> label;
  /// Size of each component, indexed by label.
  std::vector<uint32_t> size;

  size_t NumComponents() const { return size.size(); }
};

/// Connected components of the whole graph via BFS. O(n + m).
Components ConnectedComponents(const Graph& g);

/// True if the whole graph is connected (vacuously true when n <= 1).
bool IsConnected(const Graph& g);

}  // namespace esd::graph

#endif  // ESD_GRAPH_CONNECTIVITY_H_
