#include "graph/dynamic_graph.h"

#include <algorithm>

namespace esd::graph {

DynamicGraph::DynamicGraph(const Graph& g) : adj_(g.NumVertices()) {
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    auto nbrs = g.Neighbors(u);
    adj_[u].assign(nbrs.begin(), nbrs.end());
  }
  num_edges_ = g.NumEdges();
}

bool DynamicGraph::HasEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices() || u == v) return false;
  const std::vector<VertexId>& shorter =
      adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  VertexId target = adj_[u].size() <= adj_[v].size() ? v : u;
  return std::binary_search(shorter.begin(), shorter.end(), target);
}

bool DynamicGraph::InsertEdge(VertexId u, VertexId v) {
  if (u == v || u >= NumVertices() || v >= NumVertices()) return false;
  auto it = std::lower_bound(adj_[u].begin(), adj_[u].end(), v);
  if (it != adj_[u].end() && *it == v) return false;
  adj_[u].insert(it, v);
  auto it2 = std::lower_bound(adj_[v].begin(), adj_[v].end(), u);
  adj_[v].insert(it2, u);
  ++num_edges_;
  return true;
}

bool DynamicGraph::EraseEdge(VertexId u, VertexId v) {
  if (u == v || u >= NumVertices() || v >= NumVertices()) return false;
  auto it = std::lower_bound(adj_[u].begin(), adj_[u].end(), v);
  if (it == adj_[u].end() || *it != v) return false;
  adj_[u].erase(it);
  auto it2 = std::lower_bound(adj_[v].begin(), adj_[v].end(), u);
  adj_[v].erase(it2);
  --num_edges_;
  return true;
}

std::vector<VertexId> DynamicGraph::CommonNeighbors(VertexId u,
                                                    VertexId v) const {
  std::vector<VertexId> out;
  IntersectSorted(adj_[u], adj_[v], &out);
  return out;
}

Graph DynamicGraph::Snapshot() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (VertexId v : adj_[u]) {
      if (u < v) edges.push_back(Edge{u, v});
    }
  }
  return Graph::FromEdges(NumVertices(), std::move(edges));
}

}  // namespace esd::graph
