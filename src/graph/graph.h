#ifndef ESD_GRAPH_GRAPH_H_
#define ESD_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace esd::graph {

/// Vertex id. Vertices of an n-vertex graph are 0 .. n-1.
using VertexId = uint32_t;

/// Dense edge id; edges of an m-edge graph are 0 .. m-1 in lexicographic
/// (u, v) order with u < v.
using EdgeId = uint32_t;

/// Sentinel for "no edge".
inline constexpr EdgeId kNoEdge = UINT32_MAX;

/// An undirected edge with normalized endpoints (u < v).
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Normalizes an endpoint pair to u < v.
inline Edge MakeEdge(VertexId a, VertexId b) {
  return a < b ? Edge{a, b} : Edge{b, a};
}

/// Immutable simple undirected graph in CSR (compressed sparse row) form.
///
/// Neighbor lists are sorted by vertex id, and each adjacency slot also
/// records the dense id of the corresponding undirected edge, so algorithms
/// can map (u, v) -> EdgeId during merges without hashing.
///
/// Self-loops and parallel edges are rejected at construction (the paper's
/// model is a simple graph).
class Graph {
 public:
  Graph() = default;

  /// Builds a graph with `num_vertices` vertices from an edge list.
  /// Self-loops are dropped and duplicate edges collapsed. Endpoints must be
  /// < num_vertices.
  static Graph FromEdges(VertexId num_vertices, std::vector<Edge> edges);

  /// FromEdges for a list that is already normalized (u < v), sorted and
  /// duplicate-free, such as a DynamicGraph's edges read in vertex order:
  /// one linear pass, no sort.
  static Graph FromSortedEdges(VertexId num_vertices, std::vector<Edge> edges);

  /// Number of vertices.
  VertexId NumVertices() const { return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1); }

  /// Number of undirected edges.
  EdgeId NumEdges() const { return static_cast<EdgeId>(edges_.size()); }

  /// Degree of `u`.
  uint32_t Degree(VertexId u) const {
    return static_cast<uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// Maximum degree over all vertices (0 for the empty graph).
  uint32_t MaxDegree() const { return max_degree_; }

  /// Sorted neighbor list of `u`.
  std::span<const VertexId> Neighbors(VertexId u) const {
    return {adj_vertex_.data() + offsets_[u],
            adj_vertex_.data() + offsets_[u + 1]};
  }

  /// Edge ids parallel to Neighbors(u): IncidentEdges(u)[i] is the id of the
  /// undirected edge {u, Neighbors(u)[i]}.
  std::span<const EdgeId> IncidentEdges(VertexId u) const {
    return {adj_edge_.data() + offsets_[u], adj_edge_.data() + offsets_[u + 1]};
  }

  /// True if {u, v} is an edge.
  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != kNoEdge;
  }

  /// Dense id of edge {u, v}, or kNoEdge if absent.
  EdgeId FindEdge(VertexId u, VertexId v) const;

  /// Endpoints of edge `e` (u < v).
  const Edge& EdgeAt(EdgeId e) const { return edges_[e]; }

  /// The full edge list, sorted lexicographically; EdgeAt(i) == Edges()[i].
  const std::vector<Edge>& Edges() const { return edges_; }

 private:
  std::vector<uint64_t> offsets_;     // size n+1
  std::vector<VertexId> adj_vertex_;  // size 2m, sorted per vertex
  std::vector<EdgeId> adj_edge_;      // size 2m, parallel to adj_vertex_
  std::vector<Edge> edges_;           // size m, lexicographically sorted
  uint32_t max_degree_ = 0;
};

/// Sorted intersection of two sorted vertex lists, written into `*out`
/// (cleared first). The one merge behind every N(uv) = N(u) ∩ N(v).
void IntersectSorted(std::span<const VertexId> a, std::span<const VertexId> b,
                     std::vector<VertexId>* out);

/// Sorted intersection of the neighbor lists of u and v — the common
/// neighborhood N(uv) (Section II). Output is sorted by vertex id.
std::vector<VertexId> CommonNeighbors(const Graph& g, VertexId u, VertexId v);

/// Number of common neighbors |N(u) ∩ N(v)| without materializing the list.
uint32_t CountCommonNeighbors(const Graph& g, VertexId u, VertexId v);

}  // namespace esd::graph

#endif  // ESD_GRAPH_GRAPH_H_
