#ifndef ESD_TESTS_FOUR_CLIQUE_ORACLE_H_
#define ESD_TESTS_FOUR_CLIQUE_ORACLE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/edge_dsu_arena.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "util/rng.h"

// The oracle for EdgeDsuArena::ForEach4CliqueOfVertex: a 4-clique kernel
// that lists each vertex's out-neighbourhood sub-DAG itself, from the DAG
// alone, independently of the arena.

namespace esd::test {

/// A 4-clique {u, v, w1, w2} with the ids of all six edges. The guarantees
/// are u ≺ v ≺ w1 ≺ w2, and every 4-clique of the graph is emitted exactly
/// once (Observation 1 of the paper maps each such clique to one edge of one
/// edge ego-network).
///
/// `uvw1`, `uvw2` and `uw1w2` are the indices of the triangles (u, v, w1),
/// (u, v, w2) and (u, w1, w2) in u's triangle listing
/// (ForEachTriangleOfVertex), which lists them in the kernel's local arc
/// order.
struct DagFourClique {
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
/// disjoint ranges) yields each 4-clique exactly once.
///
/// `fn` is a callable taking (const DagFourClique&).
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
        fn(DagFourClique{u, nu[vi], nu[w1], nu[w2], eu[vi], eu[w1], eu[w2],
                      local[p].e, local[p2].e, local[q].e,
                      static_cast<uint32_t>(p), static_cast<uint32_t>(p2),
                      static_cast<uint32_t>(q)});
      }
    }
    for (uint64_t p = vlo; p < vhi; ++p) in_w[local[p].w] = 0;
  }
}

/// Enumerates all 4-cliques of the graph exactly once.
template <typename Fn>
void ForEach4Clique(const graph::DegreeOrderedDag& dag, Fn&& fn) {
  FourCliqueScratch scratch(dag);
  for (graph::VertexId u = 0; u < dag.NumVertices(); ++u) {
    ForEach4CliqueOfVertex(dag, u, &scratch, fn);
  }
}

/// Number of 4-cliques.
inline uint64_t Count4Cliques(const graph::Graph& g) {
  graph::DegreeOrderedDag dag(g);
  uint64_t count = 0;
  ForEach4Clique(dag, [&count](const DagFourClique&) { ++count; });
  return count;
}

/// A 4-clique as its thirteen fields: u, v, w1, w2, the six edge ids and
/// the arena ids of (u, v, w1), (u, v, w2) and (u, w1, w2).
using CliqueFields = std::array<uint32_t, 13>;

inline CliqueFields FieldsOf(const core::FourClique& q) {
  return {q.u,   q.v,   q.w1,  q.w2,   q.uv,   q.uw1,  q.uw2,
          q.vw1, q.vw2, q.w1w2, q.uvw1, q.uvw2, q.uw1w2};
}

/// The oracle's cliques in emission order, its triangle indices (positions
/// in u's listing) turned into arena ids: u's triangles start at the first
/// triangle of u's first out-arc.
inline std::vector<CliqueFields> OracleFields(
    const graph::DegreeOrderedDag& dag, const core::EdgeDsuArena& arena) {
  std::vector<CliqueFields> out;
  ForEach4Clique(dag, [&](const DagFourClique& q) {
    const uint32_t base = arena.FirstTriangle(dag.OutEdges(q.u)[0]);
    out.push_back({q.u, q.v, q.w1, q.w2, q.uv, q.uw1, q.uw2, q.vw1, q.vw2,
                   q.w1w2, base + q.uvw1, base + q.uvw2, base + q.uw1w2});
  });
  return out;
}

/// The arena enumerator's cliques in emission order, vertex by vertex.
inline std::vector<CliqueFields> ArenaFields(
    const graph::DegreeOrderedDag& dag, const core::EdgeDsuArena& arena) {
  std::vector<CliqueFields> out;
  core::EdgeDsuArena::CliqueScratch scratch(dag);
  for (graph::VertexId u = 0; u < dag.NumVertices(); ++u) {
    arena.ForEach4CliqueOfVertex(dag, u, &scratch,
                                 [&out](const core::FourClique& q) {
                                   out.push_back(FieldsOf(q));
                                 });
  }
  return out;
}

/// The arena enumerator's cliques with each vertex's arcs split into
/// ranges at random cuts, vertices visited in shuffled order and one
/// scratch reused throughout. The last range of a vertex runs past its
/// out-degree, which the enumerator clamps.
inline std::vector<CliqueFields> ArenaFieldsByRandomRanges(
    const graph::DegreeOrderedDag& dag, const core::EdgeDsuArena& arena,
    uint64_t seed) {
  util::Rng rng(seed);
  std::vector<graph::VertexId> order(dag.NumVertices());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::vector<CliqueFields> out;
  core::EdgeDsuArena::CliqueScratch scratch(dag);
  for (graph::VertexId u : order) {
    const uint32_t d = dag.OutDegree(u);
    uint32_t lo = 0;
    while (lo < d) {
      const uint32_t hi = lo + 1 + static_cast<uint32_t>(rng.NextBounded(4));
      arena.ForEach4CliqueOfVertex(
          dag, u, &scratch,
          [&out](const core::FourClique& q) { out.push_back(FieldsOf(q)); },
          lo, hi);
      lo = hi;
    }
  }
  return out;
}

}  // namespace esd::test

#endif  // ESD_TESTS_FOUR_CLIQUE_ORACLE_H_
