// Boundary coverage sweep: small, empty, disconnected, and over-sized
// inputs across public APIs.

#include <vector>

#include <gtest/gtest.h>

#include "baselines/betweenness.h"
#include "baselines/common_neighbor.h"
#include "cliques/truss.h"
#include "core/dynamic_index.h"
#include "core/edge_dsu_arena.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/online_topk.h"
#include "gen/erdos_renyi.h"
#include "gen/word_association.h"
#include "graph/builder.h"
#include "graph/orientation.h"
#include "graph/sampling.h"
#include "tests/test_helpers.h"

namespace esd {
namespace {

using core::EsdIndex;
using graph::Edge;
using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

TEST(EdgeCasesTest, EmptyGraphEverywhere) {
  Graph g;
  EXPECT_TRUE(core::NaiveTopK(g, 5, 2).empty());
  EXPECT_TRUE(
      core::OnlineTopK(g, 5, 2, core::UpperBoundRule::kMinDegree).empty());
  EsdIndex index = core::BuildIndex(g);
  EXPECT_TRUE(index.Query(5, 2).empty());
  EXPECT_EQ(index.NumEntries(), 0u);
  graph::DegreeOrderedDag dag(g);
  core::EdgeDsuArena arena(dag);
  EXPECT_EQ(arena.NumEdges(), 0u);
  EXPECT_TRUE(baselines::EdgeBetweenness(g).empty());
  EXPECT_TRUE(baselines::TopKByCommonNeighbors(g, 5).empty());
  EXPECT_EQ(cliques::ComputeTrussness(g).max_trussness, 0u);
}

TEST(EdgeCasesTest, DisconnectedGraphWithIsolatedVertices) {
  // Two triangles + 5 isolated vertices.
  GraphBuilder b(11);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(3, 5);
  Graph g = b.Build();
  EsdIndex index = core::BuildIndex(g);
  // Each triangle edge's ego-network is a single common neighbor.
  for (const Edge& e : g.Edges()) {
    EXPECT_EQ(index.ScoreOf(g.FindEdge(e.u, e.v), 1), 1u);
  }
  EXPECT_EQ(core::Scores(index.Query(6, 1)),
            (std::vector<uint32_t>(6, 1)));
  // Maintenance across components.
  core::DynamicEsdIndex dyn(g);
  ASSERT_TRUE(dyn.InsertEdge(2, 3));  // bridge the triangles
  ASSERT_TRUE(dyn.InsertEdge(10, 0));  // connect an isolated vertex
  Graph now = dyn.CurrentGraph().Snapshot();
  for (uint32_t tau : {1u, 2u}) {
    EXPECT_EQ(core::Scores(dyn.Query(10, tau)),
              test::NaiveTopScores(now, 10, tau));
  }
}

TEST(EdgeCasesTest, KAndTauExtremes) {
  Graph g = gen::ErdosRenyiGnp(25, 0.3, 3);
  EsdIndex index = core::BuildIndex(g);
  // k far beyond m.
  EXPECT_EQ(index.Query(1 << 20, 1).size(), g.NumEdges());
  // tau beyond any neighborhood.
  core::TopKResult r = index.Query(5, 1 << 20);
  EXPECT_EQ(r.size(), 5u);
  for (const auto& se : r) EXPECT_EQ(se.score, 0u);
  // k == exact list size boundary (no padding needed).
  size_t positive = index.Query(UINT32_MAX, 1, false).size();
  EXPECT_EQ(index.Query(static_cast<uint32_t>(positive), 1, false).size(),
            positive);
}

TEST(EdgeCasesTest, ParallelBuilderMoreThreadsThanWork) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  EsdIndex a = core::BuildIndex(g, core::EsdScorer(), 16);
  EsdIndex b = core::BuildIndexBasic(g);
  test::ExpectIndexesEqual(a, b);
}

TEST(EdgeCasesTest, SamplingDegenerateFractions) {
  Graph g = gen::ErdosRenyiGnp(20, 0.4, 5);
  EXPECT_EQ(graph::SampleVertices(g, 0.0, 1).NumVertices(), 0u);
  Graph all = graph::SampleVertices(g, 1.0, 1);
  EXPECT_EQ(all.NumVertices(), g.NumVertices());
  EXPECT_EQ(all.NumEdges(), g.NumEdges());
  // Negative/overflow fractions clamp.
  EXPECT_EQ(graph::SampleEdges(g, -0.5, 1).NumEdges(), 0u);
  EXPECT_EQ(graph::SampleEdges(g, 7.0, 1).NumEdges(), g.NumEdges());
}

TEST(EdgeCasesTest, WordGraphFindAndLabels) {
  gen::WordAssociationParams p;
  p.background_words = 50;
  gen::WordAssociationGraph w = gen::GenerateWordAssociation(p, 3);
  // Every vertex has a nonempty distinct-enough label.
  for (const std::string& word : w.words) EXPECT_FALSE(word.empty());
  // Find is consistent with the label table.
  for (VertexId v = 0; v < std::min<VertexId>(20, w.words.size()); ++v) {
    EXPECT_EQ(w.Find(w.words[v]), v);
  }
}

TEST(EdgeCasesTest, SelfLoopAndDuplicateRobustnessThroughDynamic) {
  core::DynamicEsdIndex dyn(Graph::FromEdges(4, {{0, 1}}));
  EXPECT_FALSE(dyn.InsertEdge(2, 2));
  EXPECT_TRUE(dyn.InsertEdge(1, 2));
  EXPECT_FALSE(dyn.InsertEdge(2, 1));
  EXPECT_FALSE(dyn.DeleteEdge(3, 3));
  EXPECT_EQ(dyn.CurrentGraph().NumEdges(), 2u);
}

TEST(EdgeCasesTest, TrussOnDisconnectedCliques) {
  GraphBuilder b(9);
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = i + 1; j < 4; ++j) b.AddEdge(i, j);
  }
  for (VertexId i = 4; i < 7; ++i) {
    for (VertexId j = i + 1; j < 7; ++j) b.AddEdge(i, j);
  }
  b.AddEdge(7, 8);
  Graph g = b.Build();
  cliques::TrussDecomposition d = cliques::ComputeTrussness(g);
  EXPECT_EQ(d.max_trussness, 4u);
  EXPECT_EQ(d.trussness[g.FindEdge(4, 5)], 3u);
  EXPECT_EQ(d.trussness[g.FindEdge(7, 8)], 2u);
}

}  // namespace
}  // namespace esd
