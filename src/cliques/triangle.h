#ifndef ESD_CLIQUES_TRIANGLE_H_
#define ESD_CLIQUES_TRIANGLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/orientation.h"

namespace esd::cliques {

/// A triangle {u, v, w} with the ids of its three edges. Vertices satisfy
/// u ≺ v ≺ w in the degree ordering of the DAG used for enumeration.
/// `vi` and `wi` are the indices of v and w in N+(u).
struct Triangle {
  graph::VertexId u, v, w;
  graph::EdgeId uv, uw, vw;
  uint32_t vi, wi;
};

/// Scratch for ForEachTriangleOfVertex: slot[w] is 1 + the index of w in
/// N+(u) while u is being listed, 0 otherwise. Sized to the vertex count and
/// reused across vertices; one instance per thread.
struct TriangleScratch {
  explicit TriangleScratch(const graph::DegreeOrderedDag& dag)
      : slot(dag.NumVertices(), 0) {}
  std::vector<uint32_t> slot;
};

/// Enumerates the triangles whose lowest-ranked vertex is `u`: N+(u) is
/// marked in the scratch, then every w in N+(v), for v in N+(u), that is
/// marked closes the triangle (u, v, w). That costs O(Σ_v d+(v)) per vertex,
/// O(αm) overall. The union over all vertices yields each triangle exactly
/// once, so the parallel arena fill splits the listing by vertex.
///
/// `fn` is a callable taking (const Triangle&); it is a template parameter
/// so the per-triangle dispatch inlines (the index builder's arena fill
/// lists every triangle of the graph through it once).
template <typename Fn>
void ForEachTriangleOfVertex(const graph::DegreeOrderedDag& dag,
                             graph::VertexId u, TriangleScratch* scratch,
                             Fn&& fn) {
  auto nu = dag.OutNeighbors(u);
  auto eu = dag.OutEdges(u);
  std::vector<uint32_t>& slot = scratch->slot;
  for (size_t i = 0; i < nu.size(); ++i) {
    slot[nu[i]] = static_cast<uint32_t>(i + 1);
  }
  for (size_t vi = 0; vi < nu.size(); ++vi) {
    graph::VertexId v = nu[vi];
    auto nv = dag.OutNeighbors(v);
    auto ev = dag.OutEdges(v);
    for (size_t j = 0; j < nv.size(); ++j) {
      const uint32_t s = slot[nv[j]];
      // Orientation of (u,v,w): u precedes v and w; v precedes w.
      if (s != 0) {
        fn(Triangle{u, v, nv[j], eu[vi], eu[s - 1], ev[j],
                    static_cast<uint32_t>(vi), s - 1});
      }
    }
  }
  for (graph::VertexId w : nu) slot[w] = 0;
}

/// Enumerates every triangle exactly once on the degree-ordered DAG (the
/// standard O(αm) algorithm).
template <typename Fn>
void ForEachTriangle(const graph::DegreeOrderedDag& dag, Fn&& fn) {
  TriangleScratch scratch(dag);
  const graph::VertexId n = dag.NumVertices();
  for (graph::VertexId u = 0; u < n; ++u) {
    ForEachTriangleOfVertex(dag, u, &scratch, fn);
  }
}

/// Number of triangles.
uint64_t CountTriangles(const graph::Graph& g);

/// Per-edge triangle support |N(uv)| for every edge, computed in O(αm).
std::vector<uint32_t> EdgeSupport(const graph::Graph& g);

/// Same, for a caller that already holds the graph's DAG.
std::vector<uint32_t> EdgeSupport(const graph::DegreeOrderedDag& dag);

/// Global clustering coefficient 3*triangles / open wedges (0 if no wedge).
double GlobalClusteringCoefficient(const graph::Graph& g);

}  // namespace esd::cliques

#endif  // ESD_CLIQUES_TRIANGLE_H_
