#include "core/index_builder.h"

#include <utility>

#include "cliques/four_clique.h"
#include "core/edge_dsu_arena.h"
#include "core/ego_network.h"
#include "graph/orientation.h"
#include "obs/trace.h"

namespace esd::core {

using graph::EdgeId;
using graph::Graph;
using util::KeyedDsu;

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

// Algorithm 3 minus the H build: per-edge component-size multisets via one
// 4-clique enumeration over the degree-ordered DAG. Shared by the treap and
// frozen output paths (and the ESD scorer's bulk hook).
EdgeSizePool CliqueComponentSizes(const Graph& g,
                                  std::vector<KeyedDsu>* m_out) {
  const EdgeId m = g.NumEdges();
  obs::PhaseSeries phases;
  // One DAG serves the arena fill's triangle listings and the 4-clique
  // enumeration.
  phases.Begin("build.orientation");
  graph::DegreeOrderedDag dag(g);

  // Lines 1-4 of Algorithm 3: one disjoint-set structure per edge, seeded
  // with the common neighborhood as singletons (arena-packed).
  phases.Begin("build.dsu_init");
  EdgeDsuArena dsu(dag);

  // Lines 5-15: each 4-clique {u, v, w1, w2} merges, in the structure of
  // every one of its six edges, the opposite pair of vertices.
  phases.Begin("build.clique_enum");
  cliques::ForEach4Clique(dag, [&dsu](const cliques::FourClique& q) {
    dsu.Union(q.uv, q.w1, q.w2);
    dsu.Union(q.uw1, q.v, q.w2);
    dsu.Union(q.uw2, q.v, q.w1);
    dsu.Union(q.vw1, q.u, q.w2);
    dsu.Union(q.vw2, q.u, q.w1);
    dsu.Union(q.w1w2, q.u, q.v);
  });

  // Lines 16-23 (first half): read component sizes off the disjoint sets.
  phases.Begin("build.extract_sizes");
  EdgeSizePool sizes = dsu.ComponentSizePool();
  if (m_out != nullptr) {
    m_out->clear();
    m_out->reserve(m);
    for (EdgeId e = 0; e < m; ++e) m_out->push_back(dsu.ToKeyedDsu(e));
  }
  return sizes;
}

EsdIndex BuildIndexClique(const Graph& g, std::vector<KeyedDsu>* m_out) {
  EsdIndex index;
  index.BulkLoad(g.Edges(), CliqueComponentSizes(g, m_out).ToVectors());
  return index;
}

FrozenEsdIndex BuildFrozenIndex(const Graph& g) {
  return FrozenEsdIndex::FromSizePool(g.Edges(),
                                      CliqueComponentSizes(g, nullptr));
}

EsdIndex BuildIndex(const Graph& g, const DiversityScorer& scorer) {
  if (scorer.Kind() == ScorerKind::kEsd) return BuildIndexClique(g);
  EsdIndex index;
  index.BulkLoad(g.Edges(), scorer.BuildAllEdgeValues(g));
  index.SetScorerKind(scorer.Kind());
  return index;
}

FrozenEsdIndex BuildFrozenIndex(const Graph& g,
                                const DiversityScorer& scorer) {
  if (scorer.Kind() == ScorerKind::kEsd) return BuildFrozenIndex(g);
  return FrozenEsdIndex::FromEdgeSizes(g.Edges(), scorer.BuildAllEdgeValues(g),
                                       {}, scorer.Kind());
}

}  // namespace esd::core
