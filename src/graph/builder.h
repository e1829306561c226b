#ifndef ESD_GRAPH_BUILDER_H_
#define ESD_GRAPH_BUILDER_H_

#include <vector>

#include "graph/graph.h"

namespace esd::graph {

/// Incremental edge-list accumulator producing an immutable Graph.
///
/// Self-loops are dropped and duplicates collapsed at Build() time. The
/// vertex count defaults to 1 + the largest endpoint seen, but can be fixed
/// upfront to keep isolated tail vertices.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Fixes the vertex count; endpoints must stay below it.
  explicit GraphBuilder(VertexId num_vertices)
      : num_vertices_(num_vertices), fixed_n_(true) {}

  /// Queues an undirected edge {a, b}. Order of endpoints is irrelevant.
  void AddEdge(VertexId a, VertexId b) {
    edges_.push_back(MakeEdge(a, b));
    if (!fixed_n_) {
      num_vertices_ = std::max(num_vertices_, std::max(a, b) + 1);
    }
  }

  /// Current vertex count.
  VertexId NumVertices() const { return num_vertices_; }

  /// Reserves space for `m` edges.
  void Reserve(size_t m) { edges_.reserve(m); }

  /// Builds the graph, consuming the queued edges.
  Graph Build() {
    Graph g = Graph::FromEdges(num_vertices_, std::move(edges_));
    edges_.clear();
    return g;
  }

 private:
  std::vector<Edge> edges_;
  VertexId num_vertices_ = 0;
  bool fixed_n_ = false;
};

}  // namespace esd::graph

#endif  // ESD_GRAPH_BUILDER_H_
