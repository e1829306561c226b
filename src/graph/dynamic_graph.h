#ifndef ESD_GRAPH_DYNAMIC_GRAPH_H_
#define ESD_GRAPH_DYNAMIC_GRAPH_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace esd::graph {

/// Mutable simple undirected graph backed by one row per vertex — the
/// substrate of the index maintenance algorithms (Section V).
///
/// A vertex's row holds its sorted neighbours followed by the ids of the
/// edges to them, in the same order, as Graph keeps adj_edge_ parallel to
/// its adjacency: a merge over neighbour lists maps (u, w) to an edge id
/// without hashing, and the ids cost no allocation of their own. An edge's
/// id is whatever its inserter supplied (kNoEdge by default); copying a
/// Graph takes the Graph's ids.
///
/// Insert/erase of an edge costs O(d(u) + d(v)); membership tests and
/// common-neighbor merges are binary search / linear merges over the sorted
/// lists. Vertices are fixed at construction (the paper treats vertex
/// updates as edge-update sequences).
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// An edgeless graph on n vertices.
  explicit DynamicGraph(VertexId num_vertices) : rows_(num_vertices) {}

  /// Copies a static graph, edge ids included.
  explicit DynamicGraph(const Graph& g);

  VertexId NumVertices() const { return static_cast<VertexId>(rows_.size()); }
  uint64_t NumEdges() const { return num_edges_; }

  uint32_t Degree(VertexId u) const {
    return static_cast<uint32_t>(rows_[u].size() / 2);
  }

  /// Sorted neighbors of u. Invalidated by any mutation.
  std::span<const VertexId> Neighbors(VertexId u) const {
    return {rows_[u].data(), Degree(u)};
  }

  /// Edge ids parallel to Neighbors(u). Invalidated by any mutation.
  std::span<const EdgeId> IncidentEdges(VertexId u) const {
    return {rows_[u].data() + Degree(u), Degree(u)};
  }

  bool HasEdge(VertexId u, VertexId v) const;

  /// Id of edge {u, v} as its inserter supplied it, or kNoEdge if absent.
  EdgeId FindEdge(VertexId u, VertexId v) const;

  /// Appends an isolated vertex and returns its id (the paper treats
  /// vertex updates as edge-update sequences; this provides the vertex
  /// half).
  VertexId AddVertex() {
    rows_.emplace_back();
    return static_cast<VertexId>(rows_.size() - 1);
  }

  /// Inserts {u, v} with id `e`; returns false if it already exists or
  /// u == v.
  bool InsertEdge(VertexId u, VertexId v, EdgeId e = kNoEdge);

  /// Erases {u, v}; returns false if absent.
  bool EraseEdge(VertexId u, VertexId v);

  /// Sorted common neighborhood N(uv) = N(u) ∩ N(v).
  std::vector<VertexId> CommonNeighbors(VertexId u, VertexId v) const;

  /// Materializes an immutable CSR snapshot in one linear pass. Its edge
  /// ids are the Graph's own (lexicographic), not this graph's.
  Graph Snapshot() const;

 private:
  /// Position of v among u's neighbours, or Degree(u) if absent.
  uint32_t IndexOf(VertexId u, VertexId v) const;

  std::vector<std::vector<uint32_t>> rows_;  // neighbours, then edge ids
  uint64_t num_edges_ = 0;
};

}  // namespace esd::graph

#endif  // ESD_GRAPH_DYNAMIC_GRAPH_H_
