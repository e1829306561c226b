#include "graph/orientation.h"

#include <algorithm>

namespace esd::graph {

DegreeOrderedDag::DegreeOrderedDag(const Graph& g) {
  const VertexId n = g.NumVertices();
  // Rank by (degree, id): a counting sort on degree that places vertices in
  // id order, so ids already ascend within a degree.
  std::vector<uint32_t> bucket(g.MaxDegree() + 2, 0);
  for (VertexId u = 0; u < n; ++u) ++bucket[g.Degree(u) + 1];
  for (size_t d = 1; d < bucket.size(); ++d) bucket[d] += bucket[d - 1];
  rank_.resize(n);
  for (VertexId u = 0; u < n; ++u) rank_[u] = bucket[g.Degree(u)]++;

  // CSR of out-neighbors. Each undirected edge contributes one arc from the
  // lower-ranked endpoint.
  offsets_.assign(n + 1, 0);
  for (const Edge& e : g.Edges()) {
    ++offsets_[(rank_[e.u] < rank_[e.v] ? e.u : e.v) + 1];
  }
  for (VertexId u = 0; u < n; ++u) {
    max_out_degree_ =
        std::max(max_out_degree_, static_cast<uint32_t>(offsets_[u + 1]));
    offsets_[u + 1] += offsets_[u];
  }
  // Walking the targets x in increasing id order and appending x to the
  // out-list of each lower-ranked neighbor leaves every list id-sorted.
  adj_vertex_.resize(g.NumEdges());
  adj_edge_.resize(g.NumEdges());
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (VertexId x = 0; x < n; ++x) {
    auto nx = g.Neighbors(x);
    auto ex = g.IncidentEdges(x);
    for (size_t i = 0; i < nx.size(); ++i) {
      const VertexId y = nx[i];
      if (rank_[y] >= rank_[x]) continue;
      adj_vertex_[cursor[y]] = x;
      adj_edge_[cursor[y]++] = ex[i];
    }
  }
}

}  // namespace esd::graph
