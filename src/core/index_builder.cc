#include "core/index_builder.h"

#include <algorithm>
#include <span>
#include <utility>

#include "cliques/four_clique.h"
#include "core/edge_dsu_arena.h"
#include "core/ego_network.h"
#include "graph/orientation.h"
#include "obs/trace.h"
#include "util/spinlock.h"

namespace esd::core {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using util::KeyedDsu;

namespace {

// Lines 5-15 of Algorithm 3: each 4-clique {u, v, w1, w2} merges, in the
// structure of every one of its six edges, the opposite pair of vertices.
template <typename Unite>
void UniteOppositePairs(const cliques::FourClique& q, Unite&& unite) {
  unite(q.uv, q.w1, q.w2);
  unite(q.uw1, q.v, q.w2);
  unite(q.uw2, q.v, q.w1);
  unite(q.vw1, q.u, q.w2);
  unite(q.vw2, q.u, q.w1);
  unite(q.w1w2, q.u, q.v);
}

// The 4-clique stage on a pool: chunks of arcs (the paper's choice, whose
// work distribution is much flatter) or of vertices, with the unions on
// each M_e serialized by a striped lock keyed by e. Each chunk lists with
// its own n-sized scratch, so chunks take the arena fill's grain (a few per
// thread). An arc chunk is cut at vertex boundaries into (u, arc range)
// runs; each run lists u's local DAG once.
void PooledCliqueUnions(const graph::DegreeOrderedDag& dag,
                        util::ThreadPool& pool, ParallelMode mode,
                        EdgeDsuArena* dsu) {
  util::StripedLocks locks(4096);
  auto on_clique = [&](const cliques::FourClique& q) {
    UniteOppositePairs(q, [&](EdgeId e, VertexId a, VertexId b) {
      util::SpinLockGuard guard(locks.ForKey(e));
      dsu->Union(e, a, b);
    });
  };
  const uint64_t units = mode == ParallelMode::kVertexParallel
                             ? dag.NumVertices()
                             : dag.NumEdges();
  const uint64_t grain =
      std::max<uint64_t>(64, units / (16 * pool.num_threads()));
  if (mode == ParallelMode::kVertexParallel) {
    pool.ParallelForChunked(0, units, grain, [&](uint64_t lo, uint64_t hi) {
      ESD_TRACE_SPAN("build.clique_enum.chunk");
      cliques::FourCliqueScratch scratch(dag);
      for (uint64_t u = lo; u < hi; ++u) {
        cliques::ForEach4CliqueOfVertex(dag, static_cast<VertexId>(u),
                                        &scratch, on_clique);
      }
    });
    return;
  }
  // Arc i of the DAG is OutNeighbors(u)[i - first[u]].
  std::span<const uint64_t> first = dag.ArcOffsets();
  pool.ParallelForChunked(0, units, grain, [&](uint64_t lo, uint64_t hi) {
    ESD_TRACE_SPAN("build.clique_enum.chunk");
    cliques::FourCliqueScratch scratch(dag);
    // The vertex whose out-arcs hold arc `lo`.
    auto u = static_cast<VertexId>(
        std::upper_bound(first.begin(), first.end(), lo) - first.begin() - 1);
    for (; lo < hi; ++u) {
      const uint64_t end = std::min(hi, first[u + 1]);
      cliques::ForEach4CliqueOfVertex(
          dag, u, &scratch, on_clique,
          {static_cast<uint32_t>(lo - first[u]),
           static_cast<uint32_t>(end - first[u])});
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
  std::vector<std::vector<uint32_t>> sizes(g.NumEdges());
  {
    obs::PhaseSeries phases;
    phases.Begin("build.ego_bfs");
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const graph::Edge& uv = g.EdgeAt(e);
      sizes[e] = EgoComponentSizes(g, uv.u, uv.v, probe);
    }
  }
  EsdIndex index;
  index.BulkLoad(g.Edges(), std::move(sizes));
  return index;
}

EdgeSizePool CliqueComponentSizes(const Graph& g, util::ThreadPool* pool,
                                  std::vector<KeyedDsu>* m_out,
                                  ParallelMode mode) {
  if (pool != nullptr && pool->num_threads() <= 1) pool = nullptr;
  obs::PhaseSeries phases;
  // One DAG serves the arena fill's triangle listings and the 4-clique
  // enumeration.
  phases.Begin("build.orientation");
  graph::DegreeOrderedDag dag(g);

  // Lines 1-4: one disjoint-set structure per edge, seeded with the common
  // neighborhood as singletons (arena-packed).
  phases.Begin("build.dsu_init");
  EdgeDsuArena dsu(dag, pool);

  phases.Begin("build.clique_enum");
  if (pool == nullptr) {
    cliques::ForEach4Clique(dag, [&dsu](const cliques::FourClique& q) {
      UniteOppositePairs(q, [&dsu](EdgeId e, VertexId a, VertexId b) {
        dsu.Union(e, a, b);
      });
    });
  } else {
    PooledCliqueUnions(dag, *pool, mode, &dsu);
  }

  // Lines 16-23 (first half): read component sizes off the disjoint sets.
  // Slices of different edges are disjoint, so no synchronization is
  // needed.
  phases.Begin("build.extract_sizes");
  EdgeSizePool sizes = dsu.ComponentSizePool(pool);
  if (m_out != nullptr) {
    m_out->clear();
    m_out->resize(g.NumEdges());
    util::ForRange(pool, g.NumEdges(), 512, [&](uint64_t lo, uint64_t hi) {
      for (uint64_t e = lo; e < hi; ++e) {
        (*m_out)[e] = dsu.ToKeyedDsu(static_cast<EdgeId>(e));
      }
    });
  }
  return sizes;
}

EsdIndex BuildIndex(const Graph& g, const DiversityScorer& scorer,
                    unsigned num_threads) {
  EsdIndex index;
  index.BulkLoad(g.Edges(), BulkValues(g, scorer, num_threads).ToVectors());
  index.SetScorerKind(scorer.Kind());
  return index;
}

FrozenEsdIndex BuildFrozenIndex(const Graph& g, const DiversityScorer& scorer,
                                unsigned num_threads) {
  return FrozenEsdIndex::FromSizePool(
      g.Edges(), BulkValues(g, scorer, num_threads), {}, scorer.Kind());
}

}  // namespace esd::core
