#ifndef ESD_CLIQUES_FOUR_CLIQUE_H_
#define ESD_CLIQUES_FOUR_CLIQUE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/orientation.h"

namespace esd::cliques {

/// A 4-clique {u, v, w1, w2} with the ids of all six edges. The guarantees
/// are u ≺ v, and {w1, w2} ⊆ N+(u) ∩ N+(v) with w1 ≺ w2; every 4-clique of
/// the graph is emitted exactly once (Observation 1 of the paper maps each
/// such clique to one edge of one edge ego-network).
struct FourClique {
  graph::VertexId u, v, w1, w2;
  graph::EdgeId uv, uw1, uw2, vw1, vw2, w1w2;
};

/// Scratch buffers reused across arcs, so per-arc enumeration does not
/// allocate. One instance per thread in a pooled build.
class FourCliqueScratch {
 public:
  struct CommonOut {
    graph::VertexId w;
    graph::EdgeId uw;
    graph::EdgeId vw;
  };
  std::vector<CommonOut> common;
};

/// Enumerates the 4-cliques whose two lowest-ranked vertices are the arc
/// (u, v) of the DAG (u ≺ v). `e_uv` is the undirected edge id of the arc.
/// The union over all arcs yields each 4-clique exactly once.
///
/// `fn` is a callable taking (const FourClique&); it is a template
/// parameter so the per-clique dispatch inlines (this sits on the index
/// builder's hottest path).
template <typename Fn>
void ForEach4CliqueOfArc(const graph::DegreeOrderedDag& dag, graph::VertexId u,
                         graph::VertexId v, graph::EdgeId e_uv,
                         FourCliqueScratch* scratch, Fn&& fn) {
  auto nu = dag.OutNeighbors(u);
  auto eu = dag.OutEdges(u);
  auto nv = dag.OutNeighbors(v);
  auto ev = dag.OutEdges(v);

  // W = N+(u) ∩ N+(v), with the edge ids to both endpoints.
  auto& common = scratch->common;
  common.clear();
  size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nu[i] > nv[j]) {
      ++j;
    } else {
      common.push_back({nu[i], eu[i], ev[j]});
      ++i;
      ++j;
    }
  }
  if (common.size() < 2) return;

  // Edges inside W: for each w1 in W, merge-intersect N+(w1) with W (both
  // sorted by vertex id). Each such edge (w1, w2) closes exactly one
  // 4-clique {u, v, w1, w2}.
  for (size_t a = 0; a < common.size(); ++a) {
    graph::VertexId w1 = common[a].w;
    auto nw = dag.OutNeighbors(w1);
    auto ew = dag.OutEdges(w1);
    // q scans all of W: id order need not agree with rank order, so lower-id
    // members can still be out-neighbors of w1. Each W-edge lives in exactly
    // one out-list, so nothing is emitted twice.
    size_t p = 0, q = 0;
    while (p < nw.size() && q < common.size()) {
      if (nw[p] < common[q].w) {
        ++p;
      } else if (nw[p] > common[q].w) {
        ++q;
      } else {
        const auto& c2 = common[q];
        fn(FourClique{u, v, w1, c2.w, e_uv, common[a].uw, c2.uw, common[a].vw,
                      c2.vw, ew[p]});
        ++p;
        ++q;
      }
    }
  }
}

/// Enumerates the 4-cliques whose lowest-ranked vertex is `u`: those of
/// every out-arc of u.
template <typename Fn>
void ForEach4CliqueOfVertex(const graph::DegreeOrderedDag& dag,
                            graph::VertexId u, FourCliqueScratch* scratch,
                            Fn&& fn) {
  auto nu = dag.OutNeighbors(u);
  auto eu = dag.OutEdges(u);
  for (size_t vi = 0; vi < nu.size(); ++vi) {
    ForEach4CliqueOfArc(dag, u, nu[vi], eu[vi], scratch, fn);
  }
}

/// Enumerates all 4-cliques of the graph exactly once, in O(α²m) time
/// (Chiba–Nishizeki via the degree-ordered DAG).
template <typename Fn>
void ForEach4Clique(const graph::DegreeOrderedDag& dag, Fn&& fn) {
  FourCliqueScratch scratch;
  for (graph::VertexId u = 0; u < dag.NumVertices(); ++u) {
    ForEach4CliqueOfVertex(dag, u, &scratch, fn);
  }
}

/// Number of 4-cliques.
uint64_t Count4Cliques(const graph::Graph& g);

}  // namespace esd::cliques

#endif  // ESD_CLIQUES_FOUR_CLIQUE_H_
