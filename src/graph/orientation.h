#ifndef ESD_GRAPH_ORIENTATION_H_
#define ESD_GRAPH_ORIENTATION_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace esd::graph {

/// The degree-ordered DAG of Section II: every undirected edge is oriented
/// from its lower-ranked endpoint to its higher-ranked endpoint, where
/// u ≺ v iff d(u) < d(v), ties broken by smaller vertex id.
///
/// Out-neighbor lists are sorted by vertex id so that N+(u) ∩ N+(v) can be
/// computed with a linear merge; the parallel arrays of edge ids let clique
/// enumeration report edge identities for free.
///
/// The degree ordering bounds every out-degree by O(α) on real graphs, which
/// is what gives the 4-clique index builder its O(α²m) enumeration cost
/// (Theorem 7).
class DegreeOrderedDag {
 public:
  DegreeOrderedDag() = default;

  /// Builds the DAG for `g`. The graph must outlive the DAG only for the
  /// duration of this call; the DAG stores its own adjacency.
  explicit DegreeOrderedDag(const Graph& g);

  VertexId NumVertices() const {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Number of arcs, i.e. edges of the source graph (edge ids are dense in
  /// [0, NumEdges())).
  EdgeId NumEdges() const { return static_cast<EdgeId>(adj_edge_.size()); }

  /// Rank of vertex `u` in the total order ≺ (0 = smallest).
  uint32_t Rank(VertexId u) const { return rank_[u]; }

  /// True iff u ≺ v.
  bool Less(VertexId u, VertexId v) const { return rank_[u] < rank_[v]; }

  /// Out-degree of `u` in the DAG.
  uint32_t OutDegree(VertexId u) const {
    return static_cast<uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// Largest out-degree — a practical stand-in for O(α).
  uint32_t MaxOutDegree() const { return max_out_degree_; }

  /// Out-neighbors of `u`, sorted by vertex id.
  std::span<const VertexId> OutNeighbors(VertexId u) const {
    return {adj_vertex_.data() + offsets_[u],
            adj_vertex_.data() + offsets_[u + 1]};
  }

  /// Arc offsets, n + 1 entries: the out-arcs of u are arcs
  /// [ArcOffsets()[u], ArcOffsets()[u + 1]) of the DAG's CSR order.
  std::span<const uint64_t> ArcOffsets() const { return offsets_; }

  /// Edge ids parallel to OutNeighbors(u).
  std::span<const EdgeId> OutEdges(VertexId u) const {
    return {adj_edge_.data() + offsets_[u], adj_edge_.data() + offsets_[u + 1]};
  }

 private:
  std::vector<uint64_t> offsets_;
  std::vector<VertexId> adj_vertex_;
  std::vector<EdgeId> adj_edge_;
  std::vector<uint32_t> rank_;
  uint32_t max_out_degree_ = 0;
};

}  // namespace esd::graph

#endif  // ESD_GRAPH_ORIENTATION_H_
