// Metamorphic properties: transformations of the input whose effect on the
// output is known exactly. These catch bugs that example-based tests and
// cross-implementation agreement can both miss (e.g., a shared
// vertex-ordering assumption).

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_index.h"
#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/naive_topk.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "graph/graph.h"
#include "tests/test_helpers.h"
#include "util/rng.h"
#include "util/treap.h"

namespace esd {
namespace {

using core::EsdIndex;
using graph::Edge;
using graph::Graph;
using graph::VertexId;

Graph Relabel(const Graph& g, const std::vector<VertexId>& perm) {
  std::vector<Edge> edges;
  edges.reserve(g.NumEdges());
  for (const Edge& e : g.Edges()) {
    edges.push_back(graph::MakeEdge(perm[e.u], perm[e.v]));
  }
  return Graph::FromEdges(g.NumVertices(), std::move(edges));
}

TEST(MetamorphicTest, ScoresInvariantUnderVertexRelabeling) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    Graph g = gen::ErdosRenyiGnp(40, 0.3, seed);
    util::Rng rng(seed * 31);
    std::vector<VertexId> perm(g.NumVertices());
    std::iota(perm.begin(), perm.end(), 0);
    for (VertexId i = g.NumVertices(); i-- > 1;) {
      std::swap(perm[i], perm[rng.NextBounded(i + 1)]);
    }
    Graph h = Relabel(g, perm);
    for (uint32_t tau : {1u, 2u, 3u}) {
      // Full sorted score multisets must match.
      std::vector<uint32_t> a = core::AllEdgeScores(g, tau);
      std::vector<uint32_t> b = core::AllEdgeScores(h, tau);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "tau=" << tau << " seed=" << seed;
      // Per-edge correspondence.
      for (const Edge& e : g.Edges()) {
        EXPECT_EQ(core::EdgeScore(g, e.u, e.v, tau),
                  core::EdgeScore(h, perm[e.u], perm[e.v], tau));
      }
    }
    // Index artifacts match too (distinct sizes and entry count).
    EsdIndex ig = core::BuildIndex(g);
    EsdIndex ih = core::BuildIndex(h);
    EXPECT_EQ(ig.DistinctSizes(), ih.DistinctSizes());
    EXPECT_EQ(ig.NumEntries(), ih.NumEntries());
  }
}

TEST(MetamorphicTest, AddingContextlessEdgeChangesNothingElse) {
  // Observation 2 corollary: inserting an edge whose endpoints share no
  // neighbor leaves every other edge's score untouched.
  Graph g = gen::HolmeKim(80, 4, 0.5, 7);
  // Find such a pair.
  VertexId a = UINT32_MAX, b = UINT32_MAX;
  for (VertexId u = 0; u < g.NumVertices() && a == UINT32_MAX; ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (!g.HasEdge(u, v) && graph::CountCommonNeighbors(g, u, v) == 0) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_NE(a, UINT32_MAX);
  core::DynamicEsdIndex dyn(g);
  std::vector<uint32_t> before = core::AllEdgeScores(g, 2);
  ASSERT_TRUE(dyn.InsertEdge(a, b));
  EXPECT_EQ(dyn.LastUpdateTouchedEdges(), 1u);
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& uv = g.EdgeAt(e);
    EXPECT_EQ(dyn.ScoreOf(uv.u, uv.v, 2), before[e]);
  }
  EXPECT_EQ(dyn.ScoreOf(a, b, 2), 0u);
}

TEST(MetamorphicTest, DisjointUnionScoresAreTheConcatenation) {
  // Scores on a disjoint union = union of scores of the parts.
  Graph g1 = gen::ErdosRenyiGnp(25, 0.35, 11);
  Graph g2 = gen::ErdosRenyiGnp(20, 0.4, 12);
  std::vector<Edge> edges(g1.Edges());
  for (const Edge& e : g2.Edges()) {
    edges.push_back(Edge{e.u + g1.NumVertices(), e.v + g1.NumVertices()});
  }
  Graph both = Graph::FromEdges(g1.NumVertices() + g2.NumVertices(),
                                std::move(edges));
  for (uint32_t tau : {1u, 2u, 3u}) {
    std::vector<uint32_t> want = core::AllEdgeScores(g1, tau);
    std::vector<uint32_t> s2 = core::AllEdgeScores(g2, tau);
    want.insert(want.end(), s2.begin(), s2.end());
    std::sort(want.begin(), want.end());
    std::vector<uint32_t> got = core::AllEdgeScores(both, tau);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
}

TEST(MetamorphicTest, TreapStructureValidAfterHeavyChurn) {
  util::Treap<uint32_t> t;
  util::Rng rng(99);
  EXPECT_TRUE(t.ValidateStructure());
  for (int step = 0; step < 5000; ++step) {
    uint32_t x = static_cast<uint32_t>(rng.NextBounded(400));
    if (rng.NextBool(0.5)) {
      t.Insert(x);
    } else {
      t.Erase(x);
    }
    if (step % 500 == 0) {
      EXPECT_TRUE(t.ValidateStructure()) << step;
    }
  }
  EXPECT_TRUE(t.ValidateStructure());
  // Bulk build also yields a valid treap.
  std::vector<uint32_t> sorted(1000);
  std::iota(sorted.begin(), sorted.end(), 0);
  t.BuildFromSorted(sorted);
  EXPECT_TRUE(t.ValidateStructure());
}

}  // namespace
}  // namespace esd
