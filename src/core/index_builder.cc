#include "core/index_builder.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/edge_dsu_arena.h"
#include "core/ego_network.h"
#include "graph/orientation.h"
#include "obs/trace.h"
#include "util/spinlock.h"

namespace esd::core {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

namespace {

// Lines 5-15 of Algorithm 3: each 4-clique {u, v, w1, w2} merges, in the
// structure of every one of its six edges, the opposite pair of vertices.
// The twelve slots come from the clique's four triangles: (u, v, w1),
// (u, v, w2) and (u, w1, w2) are named by the enumerator; (v, w1, w2) is
// found in vw1's upper section by a galloping cursor that the cliques of
// one (u, v, w1) share, as their w2 ascend. One instance per thread.
class OppositePairs {
 public:
  explicit OppositePairs(const EdgeDsuArena& dsu) : dsu_(dsu) {}

  // Calls unite(e, slot, slot) for each of the clique's six edges.
  template <typename Fn>
  void Unite(const FourClique& q, Fn&& unite) {
    if (q.uvw1 != cursor_tri_) {
      cursor_tri_ = q.uvw1;
      cursor_ = 0;
    }
    const EdgeDsuArena::TriangleSlots& a = dsu_.SlotsOf(q.uvw1);
    const EdgeDsuArena::TriangleSlots& b = dsu_.SlotsOf(q.uvw2);
    const EdgeDsuArena::TriangleSlots& c = dsu_.SlotsOf(q.uw1w2);
    const EdgeDsuArena::TriangleSlots& d =
        dsu_.SlotsOf(dsu_.UpperTriangle(q.vw1, q.w2, &cursor_));
    unite(q.uv, a.uv, b.uv);    // w1, w2
    unite(q.uw1, a.uw, c.uv);   // v, w2
    unite(q.uw2, b.uw, c.uw);   // v, w1
    unite(q.vw1, a.vw, d.uv);   // u, w2
    unite(q.vw2, b.vw, d.uw);   // u, w1
    unite(q.w1w2, c.vw, d.vw);  // u, v
  }

 private:
  const EdgeDsuArena& dsu_;
  uint32_t cursor_tri_ = EdgeDsuArena::kRoot;  // no triangle id
  uint32_t cursor_ = 0;
};

// The 4-clique stage on a pool: chunks of arcs (the paper's choice, whose
// work distribution is much flatter) or of vertices, with the unions on
// each M_e serialized by a striped lock keyed by e. Each chunk enumerates
// with its own n-sized scratch, so chunks take the arena fill's grain (a
// few per thread). An arc chunk is cut at vertex boundaries into (u, arc
// range) runs; each run stamps N+(u) once.
void PooledCliqueUnions(const graph::DegreeOrderedDag& dag,
                        util::ThreadPool& pool, ParallelMode mode,
                        EdgeDsuArena* dsu) {
  util::StripedLocks locks(4096);
  auto unite = [&](EdgeId e, uint32_t a, uint32_t b) {
    util::SpinLockGuard guard(locks.ForKey(e));
    dsu->Union(a, b);
  };
  const uint64_t units = mode == ParallelMode::kVertexParallel
                             ? dag.NumVertices()
                             : dag.NumEdges();
  const uint64_t grain =
      std::max<uint64_t>(64, units / (16 * pool.num_threads()));
  if (mode == ParallelMode::kVertexParallel) {
    pool.ParallelForChunked(0, units, grain, [&](uint64_t lo, uint64_t hi) {
      ESD_TRACE_SPAN("build.clique_enum.chunk");
      EdgeDsuArena::CliqueScratch scratch(dag);
      OppositePairs pairs(*dsu);
      auto on_clique = [&](const FourClique& q) { pairs.Unite(q, unite); };
      for (uint64_t u = lo; u < hi; ++u) {
        dsu->ForEach4CliqueOfVertex(dag, static_cast<VertexId>(u), &scratch,
                                    on_clique);
      }
    });
    return;
  }
  // Arc i of the DAG is OutNeighbors(u)[i - first[u]].
  std::span<const uint64_t> first = dag.ArcOffsets();
  pool.ParallelForChunked(0, units, grain, [&](uint64_t lo, uint64_t hi) {
    ESD_TRACE_SPAN("build.clique_enum.chunk");
    EdgeDsuArena::CliqueScratch scratch(dag);
    OppositePairs pairs(*dsu);
    auto on_clique = [&](const FourClique& q) { pairs.Unite(q, unite); };
    // The vertex whose out-arcs hold arc `lo`.
    auto u = static_cast<VertexId>(
        std::upper_bound(first.begin(), first.end(), lo) - first.begin() - 1);
    for (; lo < hi; ++u) {
      const uint64_t end = std::min(hi, first[u + 1]);
      dsu->ForEach4CliqueOfVertex(dag, u, &scratch, on_clique,
                                  static_cast<uint32_t>(lo - first[u]),
                                  static_cast<uint32_t>(end - first[u]));
      lo = end;
    }
  });
}

// The scorer's bulk hook, on a pool only when more than one thread is
// asked for (a lone build spawns nothing).
EdgeSizePool BulkValues(const Graph& g, const DiversityScorer& scorer,
                        unsigned num_threads) {
  if (num_threads <= 1) return scorer.BuildAllEdgeValues(g);
  util::ThreadPool pool(num_threads);
  return scorer.BuildAllEdgeValues(g, &pool);
}

}  // namespace

EsdIndex BuildIndexBasic(const Graph& g, graph::EgoProbe probe) {
  EdgeSizePool sizes;
  {
    obs::PhaseSeries phases;
    phases.Begin("build.ego_bfs");
    sizes.offsets.reserve(g.NumEdges() + 1);
    sizes.offsets.push_back(0);
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const graph::Edge& uv = g.EdgeAt(e);
      const std::vector<uint32_t> s = EgoComponentSizes(g, uv.u, uv.v, probe);
      sizes.values.insert(sizes.values.end(), s.begin(), s.end());
      sizes.offsets.push_back(sizes.values.size());
    }
  }
  return Thaw(FrozenEsdIndex::FromSizePool(g.Edges(), std::move(sizes)));
}

EdgeSizePool CliqueComponentSizes(const Graph& g, util::ThreadPool* pool,
                                  util::KeyedDsuPool* m_out,
                                  ParallelMode mode) {
  if (pool != nullptr && pool->num_threads() <= 1) pool = nullptr;
  obs::PhaseSeries phases;
  // One DAG serves the arena fill's triangle listings and the 4-clique
  // enumeration.
  phases.Begin("build.orientation");
  graph::DegreeOrderedDag dag(g);

  // Lines 1-4: one disjoint-set structure per edge, seeded with the common
  // neighborhood as singletons (arena-packed), from the build's one
  // triangle listing.
  phases.Begin("build.dsu_init");
  EdgeDsuArena dsu(dag, pool);

  // Lines 5-15, off the arena's upper sections.
  phases.Begin("build.clique_enum");
  if (pool == nullptr) {
    EdgeDsuArena::CliqueScratch scratch(dag);
    OppositePairs pairs(dsu);
    auto on_clique = [&](const FourClique& q) {
      pairs.Unite(q,
                  [&dsu](EdgeId, uint32_t a, uint32_t b) { dsu.Union(a, b); });
    };
    for (VertexId u = 0; u < dag.NumVertices(); ++u) {
      dsu.ForEach4CliqueOfVertex(dag, u, &scratch, on_clique);
    }
  } else {
    PooledCliqueUnions(dag, *pool, mode, &dsu);
  }
  // Nothing reads the DAG or the triangles' v→w edges after the clique
  // stage. Dropping them here takes them out of the build's peak of live
  // memory, which falls at the size extraction.
  dag = graph::DegreeOrderedDag();
  dsu.ReleaseCliqueTables();

  // Lines 16-23 (first half): read component sizes off the disjoint sets.
  // Slices of different edges are disjoint, so no synchronization is
  // needed.
  phases.Begin("build.extract_sizes");
  EdgeSizePool sizes = dsu.ComponentSizePool(pool);
  if (m_out != nullptr) dsu.ExportDsus(m_out, pool);
  return sizes;
}

EsdIndex BuildIndex(const Graph& g, const DiversityScorer& scorer,
                    unsigned num_threads) {
  return Thaw(BuildFrozenIndex(g, scorer, num_threads));
}

FrozenEsdIndex BuildFrozenIndex(const Graph& g, const DiversityScorer& scorer,
                                unsigned num_threads) {
  return FrozenEsdIndex::FromSizePool(
      g.Edges(), BulkValues(g, scorer, num_threads), {}, scorer.Kind());
}

}  // namespace esd::core
