#include "core/parallel_builder.h"

#include <utility>

#include "cliques/four_clique.h"
#include "core/edge_dsu_arena.h"
#include "graph/orientation.h"
#include "obs/trace.h"
#include "util/spinlock.h"
#include "util/thread_pool.h"

namespace esd::core {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using util::KeyedDsu;

namespace {

// Phases 1-3 of Section IV-E: parallel per-edge component-size extraction,
// shared by the treap and frozen output paths. The pool outlives the call.
EdgeSizePool ParallelComponentSizes(const Graph& g, util::ThreadPool& pool,
                                    ParallelMode mode,
                                    std::vector<KeyedDsu>* m_out) {
  const EdgeId m = g.NumEdges();
  obs::PhaseSeries phases;
  phases.Begin("build.orientation");
  graph::DegreeOrderedDag dag(g);

  // Phase 1: disjoint-set initialization — the triangle-scatter fill,
  // parallel over vertices, then parallel slice sorts.
  phases.Begin("build.dsu_init");
  EdgeDsuArena dsu(dag, &pool);

  // Phase 2: 4-clique enumeration.
  util::StripedLocks locks(4096);
  auto locked_union = [&](EdgeId e, VertexId a, VertexId b) {
    util::SpinLockGuard guard(locks.ForKey(e));
    dsu.Union(e, a, b);
  };
  auto on_clique = [&](const cliques::FourClique& q) {
    locked_union(q.uv, q.w1, q.w2);
    locked_union(q.uw1, q.v, q.w2);
    locked_union(q.uw2, q.v, q.w1);
    locked_union(q.vw1, q.u, q.w2);
    locked_union(q.vw2, q.u, q.w1);
    locked_union(q.w1w2, q.u, q.v);
  };
  phases.Begin("build.clique_enum");
  if (mode == ParallelMode::kEdgeParallel) {
    // The paper's choice: parallel over directed arcs, whose work
    // distribution is much flatter than per-vertex work.
    struct Arc {
      VertexId u, v;
      EdgeId e;
    };
    std::vector<Arc> arcs;
    arcs.reserve(m);
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      auto out = dag.OutNeighbors(u);
      auto eids = dag.OutEdges(u);
      for (size_t i = 0; i < out.size(); ++i) {
        arcs.push_back(Arc{u, out[i], eids[i]});
      }
    }
    pool.ParallelForChunked(
        0, arcs.size(), 64, [&](uint64_t lo, uint64_t hi) {
          ESD_TRACE_SPAN("build.clique_enum.chunk");
          cliques::FourCliqueScratch scratch;
          for (uint64_t i = lo; i < hi; ++i) {
            const Arc& arc = arcs[i];
            cliques::ForEach4CliqueOfArc(dag, arc.u, arc.v, arc.e, &scratch,
                                         on_clique);
          }
        });
  } else {
    // The "simple solution" the paper warns about: parallel over vertices.
    pool.ParallelForChunked(
        0, g.NumVertices(), 32, [&](uint64_t lo, uint64_t hi) {
          ESD_TRACE_SPAN("build.clique_enum.chunk");
          cliques::FourCliqueScratch scratch;
          for (uint64_t u = lo; u < hi; ++u) {
            auto out = dag.OutNeighbors(static_cast<VertexId>(u));
            auto eids = dag.OutEdges(static_cast<VertexId>(u));
            for (size_t i = 0; i < out.size(); ++i) {
              cliques::ForEach4CliqueOfArc(dag, static_cast<VertexId>(u),
                                           out[i], eids[i], &scratch,
                                           on_clique);
            }
          }
        });
  }

  // Phase 3: component-size extraction, parallel over edges. Arena slices
  // of different edges are disjoint, so no synchronization is needed.
  phases.Begin("build.extract_sizes");
  EdgeSizePool sizes = dsu.ComponentSizePool(&pool);

  if (m_out != nullptr) {
    m_out->clear();
    m_out->resize(m);
    auto& out = *m_out;
    pool.ParallelForChunked(0, m, 512, [&](uint64_t lo, uint64_t hi) {
      for (uint64_t e = lo; e < hi; ++e) {
        out[e] = dsu.ToKeyedDsu(static_cast<EdgeId>(e));
      }
    });
  }
  return sizes;
}

// Non-ESD scorer path: the bulk build is embarrassingly parallel over edges
// (each edge's value multiset depends only on its own ego subgraph).
std::vector<std::vector<uint32_t>> ParallelScorerValues(
    const Graph& g, const DiversityScorer& scorer, util::ThreadPool& pool) {
  const EdgeId m = g.NumEdges();
  obs::PhaseSeries phases;
  phases.Begin("build.extract_sizes");
  std::vector<std::vector<uint32_t>> values(m);
  pool.ParallelForChunked(0, m, 64, [&](uint64_t lo, uint64_t hi) {
    ESD_TRACE_SPAN("build.extract_sizes.chunk");
    for (uint64_t e = lo; e < hi; ++e) {
      const graph::Edge& uv = g.EdgeAt(static_cast<EdgeId>(e));
      values[e] = scorer.EdgeValues(g, uv.u, uv.v);
    }
  });
  return values;
}

}  // namespace

EsdIndex BuildIndexParallel(const Graph& g, unsigned num_threads,
                            std::vector<KeyedDsu>* m_out, ParallelMode mode) {
  util::ThreadPool pool(num_threads);
  EsdIndex index;
  index.BulkLoad(g.Edges(),
                 ParallelComponentSizes(g, pool, mode, m_out).ToVectors());
  return index;
}

FrozenEsdIndex BuildFrozenIndexParallel(const Graph& g, unsigned num_threads,
                                        ParallelMode mode) {
  util::ThreadPool pool(num_threads);
  return FrozenEsdIndex::FromSizePool(
      g.Edges(), ParallelComponentSizes(g, pool, mode, nullptr));
}

EsdIndex BuildIndexParallel(const Graph& g, const DiversityScorer& scorer,
                            unsigned num_threads, ParallelMode mode) {
  if (scorer.Kind() == ScorerKind::kEsd) {
    return BuildIndexParallel(g, num_threads, nullptr, mode);
  }
  util::ThreadPool pool(num_threads);
  EsdIndex index;
  index.BulkLoad(g.Edges(), ParallelScorerValues(g, scorer, pool));
  index.SetScorerKind(scorer.Kind());
  return index;
}

FrozenEsdIndex BuildFrozenIndexParallel(const Graph& g,
                                        const DiversityScorer& scorer,
                                        unsigned num_threads,
                                        ParallelMode mode) {
  if (scorer.Kind() == ScorerKind::kEsd) {
    return BuildFrozenIndexParallel(g, num_threads, mode);
  }
  util::ThreadPool pool(num_threads);
  return FrozenEsdIndex::FromEdgeSizes(
      g.Edges(), ParallelScorerValues(g, scorer, pool), {}, scorer.Kind());
}

}  // namespace esd::core
