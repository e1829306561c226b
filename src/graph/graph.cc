#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace esd::graph {

Graph Graph::FromEdges(VertexId num_vertices, std::vector<Edge> edges) {
  // Normalize, drop self-loops, sort, dedup.
  size_t out = 0;
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    edges[out++] = MakeEdge(e.u, e.v);
  }
  edges.resize(out);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return FromSortedEdges(num_vertices, std::move(edges));
}

Graph Graph::FromSortedEdges(VertexId num_vertices, std::vector<Edge> edges) {
  assert(std::adjacent_find(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return !(a < b);
                            }) == edges.end());
  Graph g;
  g.edges_ = std::move(edges);
  const size_t n = num_vertices;
  const size_t m = g.edges_.size();

  std::vector<uint32_t> deg(n, 0);
  for (const Edge& e : g.edges_) {
    assert(e.u < e.v && e.v < num_vertices);
    ++deg[e.u];
    ++deg[e.v];
  }
  g.offsets_.assign(n + 1, 0);
  for (size_t u = 0; u < n; ++u) {
    g.offsets_[u + 1] = g.offsets_[u] + deg[u];
    g.max_degree_ = std::max(g.max_degree_, deg[u]);
  }
  // The edges ascend, so each vertex x receives first its lower neighbours
  // w (from the edges (w, x), ascending in w) and then its higher ones y
  // (from (x, y), ascending in y): every adjacency comes out sorted.
  g.adj_vertex_.resize(2 * m);
  g.adj_edge_.resize(2 * m);
  std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const Edge& uv = g.edges_[e];
    g.adj_vertex_[cursor[uv.u]] = uv.v;
    g.adj_edge_[cursor[uv.u]++] = e;
    g.adj_vertex_[cursor[uv.v]] = uv.u;
    g.adj_edge_[cursor[uv.v]++] = e;
  }
  return g;
}

EdgeId Graph::FindEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices() || u == v) return kNoEdge;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kNoEdge;
  return IncidentEdges(u)[static_cast<size_t>(it - nbrs.begin())];
}

void IntersectSorted(std::span<const VertexId> a, std::span<const VertexId> b,
                     std::vector<VertexId>* out) {
  out->clear();
  out->reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(*out));
}

std::vector<VertexId> CommonNeighbors(const Graph& g, VertexId u, VertexId v) {
  std::vector<VertexId> out;
  IntersectSorted(g.Neighbors(u), g.Neighbors(v), &out);
  return out;
}

uint32_t CountCommonNeighbors(const Graph& g, VertexId u, VertexId v) {
  auto nu = g.Neighbors(u);
  auto nv = g.Neighbors(v);
  size_t i = 0, j = 0;
  uint32_t count = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nu[i] > nv[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace esd::graph
