#ifndef ESD_CLIQUES_FOUR_CLIQUE_H_
#define ESD_CLIQUES_FOUR_CLIQUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "graph/orientation.h"

namespace esd::cliques {

/// A 4-clique {u, v, w1, w2} with the ids of all six edges. The guarantees
/// are u ≺ v ≺ w1 ≺ w2, and every 4-clique of the graph is emitted exactly
/// once (Observation 1 of the paper maps each such clique to one edge of one
/// edge ego-network).
///
/// `uvw1`, `uvw2` and `uw1w2` are the indices of the triangles (u, v, w1),
/// (u, v, w2) and (u, w1, w2) in u's triangle listing
/// (ForEachTriangleOfVertex), which lists them in the kernel's local arc
/// order.
struct FourClique {
  graph::VertexId u, v, w1, w2;
  graph::EdgeId uv, uw1, uw2, vw1, vw2, w1w2;
  uint32_t uvw1, uvw2, uw1w2;
};

/// Scratch for ForEach4CliqueOfVertex, sized once from the DAG so the
/// enumeration never allocates; one instance per thread.
///
/// While u is listed, `slot[w]` is 1 + the index of w in N+(u) (the
/// triangle kernel's stamp), and that index is w's local id. The sub-DAG
/// induced on N+(u) is a local CSR: the out-list L(i) of local vertex i is
/// `local[off[i], off[i + 1])`, the local id and arc edge id of each w in
/// N+(OutNeighbors(u)[i]) ∩ N+(u), in vertex-id order. While arc i is
/// closed, `in_w[j]` is 1 + the position of local id j in L(i), 0 if absent.
class FourCliqueScratch {
 public:
  struct LocalArc {
    uint32_t w;
    graph::EdgeId e;
  };

  explicit FourCliqueScratch(const graph::DegreeOrderedDag& dag)
      : slot(dag.NumVertices(), 0),
        off(dag.MaxOutDegree() + 1, 0),
        in_w(dag.MaxOutDegree() + 1, 0) {
    // The sub-DAG induced on N+(u) has at most C(d+(u), 2) arcs, and never
    // more than the graph has edges. Reserved, not filled: the pages of an
    // unused tail are never touched.
    const uint64_t d = dag.MaxOutDegree();
    local.reserve(std::min<uint64_t>(d * (d - 1) / 2, dag.NumEdges()));
  }

  std::vector<uint32_t> slot;
  std::vector<uint64_t> off;
  std::vector<uint32_t> in_w;
  std::vector<LocalArc> local;
};

/// A half-open range of indices into OutNeighbors(u); the default covers
/// every out-arc. `hi` is clamped to the out-degree.
struct ArcRange {
  uint32_t lo = 0;
  uint32_t hi = std::numeric_limits<uint32_t>::max();
};

/// Enumerates the 4-cliques whose two lowest-ranked vertices are u and an
/// out-neighbor v = OutNeighbors(u)[i], for every i in `arcs` (kClist,
/// specialised to k = 4). The sub-DAG induced on N+(u) is listed once —
/// exactly u's triangle listing, O(d+(u) + Σ_{v∈N+(u)} d+(v)), local arc p
/// being u's p-th triangle — and every triangle (v, w1, w2) of that local
/// DAG is one 4-clique {u, v, w1, w2}. The six edge ids come from
/// OutEdges(u) and the local CSR, the three triangle indices are the local
/// arcs v→w1, v→w2 and w1→w2.
///
/// Cliques come out arc by arc in id order of v, then of w1, then of w2.
/// The union over all vertices (or over any cover of each vertex's arcs by
/// disjoint ranges) yields each 4-clique exactly once, so the pooled build
/// splits the enumeration by vertex or by (u, arc range) runs.
///
/// `fn` is a callable taking (const FourClique&); it is a template
/// parameter so the per-clique dispatch inlines (this sits on the index
/// builder's hottest path).
template <typename Fn>
void ForEach4CliqueOfVertex(const graph::DegreeOrderedDag& dag,
                            graph::VertexId u, FourCliqueScratch* scratch,
                            Fn&& fn, ArcRange arcs = {}) {
  auto nu = dag.OutNeighbors(u);
  auto eu = dag.OutEdges(u);
  const uint32_t d = static_cast<uint32_t>(nu.size());
  const uint32_t hi = std::min(arcs.hi, d);
  // v, w1 and w2 all lie in N+(u).
  if (d < 3 || arcs.lo >= hi) return;

  std::vector<uint32_t>& slot = scratch->slot;
  std::vector<uint64_t>& off = scratch->off;
  std::vector<uint32_t>& in_w = scratch->in_w;
  auto& local = scratch->local;
  for (uint32_t i = 0; i < d; ++i) slot[nu[i]] = i + 1;
  // Local id order is id order: N+(u) is sorted by vertex id.
  local.clear();
  off[0] = 0;
  for (uint32_t i = 0; i < d; ++i) {
    auto nv = dag.OutNeighbors(nu[i]);
    auto ev = dag.OutEdges(nu[i]);
    for (size_t j = 0; j < nv.size(); ++j) {
      const uint32_t s = slot[nv[j]];
      if (s != 0) local.push_back({s - 1, ev[j]});
    }
    off[i + 1] = local.size();
  }
  for (graph::VertexId w : nu) slot[w] = 0;

  // Triangles (v, w1, w2) of the local DAG: stamp L(v), then each w2 in
  // L(w1) that is stamped closes one.
  for (uint32_t vi = arcs.lo; vi < hi; ++vi) {
    const uint64_t vlo = off[vi], vhi = off[vi + 1];
    if (vhi - vlo < 2) continue;
    for (uint64_t p = vlo; p < vhi; ++p) {
      in_w[local[p].w] = static_cast<uint32_t>(p - vlo + 1);
    }
    for (uint64_t p = vlo; p < vhi; ++p) {
      const uint32_t w1 = local[p].w;
      for (uint64_t q = off[w1]; q < off[w1 + 1]; ++q) {
        const uint32_t w2 = local[q].w;
        const uint32_t s = in_w[w2];
        if (s == 0) continue;
        const uint64_t p2 = vlo + s - 1;
        fn(FourClique{u, nu[vi], nu[w1], nu[w2], eu[vi], eu[w1], eu[w2],
                      local[p].e, local[p2].e, local[q].e,
                      static_cast<uint32_t>(p), static_cast<uint32_t>(p2),
                      static_cast<uint32_t>(q)});
      }
    }
    for (uint64_t p = vlo; p < vhi; ++p) in_w[local[p].w] = 0;
  }
}

/// Enumerates all 4-cliques of the graph exactly once, in O(α²m) time
/// (Chiba–Nishizeki via the degree-ordered DAG).
template <typename Fn>
void ForEach4Clique(const graph::DegreeOrderedDag& dag, Fn&& fn) {
  FourCliqueScratch scratch(dag);
  for (graph::VertexId u = 0; u < dag.NumVertices(); ++u) {
    ForEach4CliqueOfVertex(dag, u, &scratch, fn);
  }
}

/// Number of 4-cliques.
uint64_t Count4Cliques(const graph::Graph& g);

}  // namespace esd::cliques

#endif  // ESD_CLIQUES_FOUR_CLIQUE_H_
