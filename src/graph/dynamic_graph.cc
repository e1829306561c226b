#include "graph/dynamic_graph.h"

#include <algorithm>
#include <utility>

namespace esd::graph {

DynamicGraph::DynamicGraph(const Graph& g) : rows_(g.NumVertices()) {
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const auto nbrs = g.Neighbors(u);
    const auto ids = g.IncidentEdges(u);
    std::vector<uint32_t>& row = rows_[u];
    row.reserve(2 * nbrs.size());
    row.insert(row.end(), nbrs.begin(), nbrs.end());
    row.insert(row.end(), ids.begin(), ids.end());
  }
  num_edges_ = g.NumEdges();
}

uint32_t DynamicGraph::IndexOf(VertexId u, VertexId v) const {
  const std::span<const VertexId> nbrs = Neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  return it != nbrs.end() && *it == v ? static_cast<uint32_t>(it - nbrs.begin())
                                      : Degree(u);
}

bool DynamicGraph::HasEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices() || u == v) return false;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  return IndexOf(u, v) < Degree(u);
}

EdgeId DynamicGraph::FindEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices() || u == v) return kNoEdge;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const uint32_t i = IndexOf(u, v);
  return i < Degree(u) ? IncidentEdges(u)[i] : kNoEdge;
}

bool DynamicGraph::InsertEdge(VertexId u, VertexId v, EdgeId e) {
  if (u == v || u >= NumVertices() || v >= NumVertices()) return false;
  const uint32_t i = IndexOf(u, v);
  if (i < Degree(u)) return false;
  for (const auto& [a, b] : {std::pair(u, v), std::pair(v, u)}) {
    std::vector<uint32_t>& row = rows_[a];
    const size_t d = row.size() / 2;
    const size_t at = static_cast<size_t>(
        std::lower_bound(row.begin(), row.begin() + d, b) - row.begin());
    // The id first: inserting the neighbour then shifts it into place.
    row.insert(row.begin() + static_cast<ptrdiff_t>(d + at), e);
    row.insert(row.begin() + static_cast<ptrdiff_t>(at), b);
  }
  ++num_edges_;
  return true;
}

bool DynamicGraph::EraseEdge(VertexId u, VertexId v) {
  if (u == v || u >= NumVertices() || v >= NumVertices()) return false;
  if (IndexOf(u, v) == Degree(u)) return false;
  for (const auto& [a, b] : {std::pair(u, v), std::pair(v, u)}) {
    std::vector<uint32_t>& row = rows_[a];
    const size_t d = row.size() / 2;
    const size_t at = IndexOf(a, b);
    row.erase(row.begin() + static_cast<ptrdiff_t>(d + at));
    row.erase(row.begin() + static_cast<ptrdiff_t>(at));
  }
  --num_edges_;
  return true;
}

std::vector<VertexId> DynamicGraph::CommonNeighbors(VertexId u,
                                                    VertexId v) const {
  std::vector<VertexId> out;
  IntersectSorted(Neighbors(u), Neighbors(v), &out);
  return out;
}

Graph DynamicGraph::Snapshot() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (VertexId v : Neighbors(u)) {
      if (u < v) edges.push_back(Edge{u, v});
    }
  }
  return Graph::FromSortedEdges(NumVertices(), std::move(edges));
}

}  // namespace esd::graph
