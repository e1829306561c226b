#include "graph/orientation.h"

#include <algorithm>
#include <numeric>

namespace esd::graph {

DegreeOrderedDag::DegreeOrderedDag(const Graph& g) {
  const VertexId n = g.NumVertices();
  // Rank by (degree, id).
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](VertexId a, VertexId b) {
    uint32_t da = g.Degree(a), db = g.Degree(b);
    if (da != db) return da < db;
    return a < b;
  });
  rank_.resize(n);
  for (uint32_t i = 0; i < n; ++i) rank_[order[i]] = i;

  // CSR of out-neighbors. Each undirected edge contributes one arc from the
  // lower-ranked endpoint.
  std::vector<uint32_t> outdeg(n, 0);
  for (const Edge& e : g.Edges()) {
    VertexId src = rank_[e.u] < rank_[e.v] ? e.u : e.v;
    ++outdeg[src];
  }
  offsets_.assign(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    offsets_[u + 1] = offsets_[u] + outdeg[u];
    max_out_degree_ = std::max(max_out_degree_, outdeg[u]);
  }
  adj_vertex_.resize(g.NumEdges());
  adj_edge_.resize(g.NumEdges());
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& uv = g.EdgeAt(e);
    VertexId src = rank_[uv.u] < rank_[uv.v] ? uv.u : uv.v;
    VertexId dst = src == uv.u ? uv.v : uv.u;
    adj_vertex_[cursor[src]] = dst;
    adj_edge_[cursor[src]++] = e;
  }
  // Sort each out-list by vertex id (keeping the edge-id array parallel),
  // through one scratch buffer sized for the longest list.
  std::vector<std::pair<VertexId, EdgeId>> tmp;
  tmp.reserve(max_out_degree_);
  for (VertexId u = 0; u < n; ++u) {
    uint64_t lo = offsets_[u], hi = offsets_[u + 1];
    tmp.clear();
    for (uint64_t i = lo; i < hi; ++i) {
      tmp.emplace_back(adj_vertex_[i], adj_edge_[i]);
    }
    std::sort(tmp.begin(), tmp.end());
    for (uint64_t i = lo; i < hi; ++i) {
      adj_vertex_[i] = tmp[i - lo].first;
      adj_edge_[i] = tmp[i - lo].second;
    }
  }
}

}  // namespace esd::graph
