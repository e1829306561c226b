// Pins every locally-determined fact of the paper's running example
// (Fig. 1(a), Fig. 2, Examples 1-7) that our reconstruction realizes.
// The reconstruction (see core_test.cc) is exact for the a..g region, the
// {j,k,u,v,p,q} 6-clique with satellite w, and the (f,g) ego-network; the
// paper's figure has extra structure around (h,i) that the text does not
// specify, so facts depending on it are not asserted.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_index.h"
#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/online_topk.h"
#include "graph/builder.h"
#include "graph/orientation.h"

namespace esd::core {
namespace {

using graph::Edge;
using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

constexpr VertexId A = 0, B = 1, C = 2, D = 3, E = 4, F = 5, G = 6, H = 7,
                   I = 8, J = 9, K = 10, U = 11, V = 12, P = 13, Q = 14,
                   W = 15;

Graph PaperGraph() {
  GraphBuilder b(16);
  for (auto [x, y] : std::vector<std::pair<VertexId, VertexId>>{
           {A, B}, {A, C}, {B, C}, {B, D}, {B, E}, {C, E}, {C, G}, {D, E}}) {
    b.AddEdge(x, y);
  }
  for (VertexId x : {D, E, H, I}) {
    b.AddEdge(F, x);
    b.AddEdge(G, x);
  }
  b.AddEdge(F, G);
  b.AddEdge(H, I);
  std::vector<VertexId> clique{J, K, U, V, P, Q};
  for (size_t i = 0; i < clique.size(); ++i) {
    for (size_t j = i + 1; j < clique.size(); ++j) {
      b.AddEdge(clique[i], clique[j]);
    }
  }
  b.AddEdge(W, U);
  b.AddEdge(W, P);
  b.AddEdge(W, Q);
  return b.Build();
}

TEST(PaperExampleTest, DegreeOrderingTieBreak) {
  // Section II: "e ≺ f, as d(e) = d(f) and e has a smaller ID".
  Graph g = PaperGraph();
  ASSERT_EQ(g.Degree(E), g.Degree(F));
  graph::DegreeOrderedDag dag(g);
  EXPECT_TRUE(dag.Less(E, F));
}

TEST(PaperExampleTest, Example1EgoNetworkOfFG) {
  Graph g = PaperGraph();
  EXPECT_EQ(graph::CommonNeighbors(g, F, G),
            (std::vector<VertexId>{D, E, H, I}));
  EXPECT_EQ(EgoComponentSizes(g, F, G), (std::vector<uint32_t>{2, 2}));
}

TEST(PaperExampleTest, Example2Scores) {
  Graph g = PaperGraph();
  EXPECT_EQ(EdgeScore(g, F, G, 1), 2u);
  EXPECT_EQ(EdgeScore(g, F, G, 2), 2u);
  EXPECT_EQ(EdgeScore(g, F, G, 3), 0u);
}

TEST(PaperExampleTest, Fig2aH1TopRows) {
  // H(1) lists (b,c), (b,e), (c,e) with score 2 and (q,w) with score 1.
  Graph g = PaperGraph();
  EXPECT_EQ(EdgeScore(g, B, C, 1), 2u);  // N(bc) = {a, e}, no a-e edge
  EXPECT_EQ(EdgeScore(g, B, E, 1), 2u);  // N(be) = {c, d}
  EXPECT_EQ(EdgeScore(g, C, E, 1), 2u);  // N(ce) = {b, g}
  EXPECT_EQ(EdgeScore(g, Q, W, 1), 1u);  // N(qw) = {u, p}, connected
}

TEST(PaperExampleTest, Fig2bExcludedFromH2) {
  // "{(a,b),(a,c),(b,c),(b,d),(b,e),(c,e),(c,g)} are not contained in
  // H(2), since the size of the maximum connected component ... is smaller
  // than 2."
  Graph g = PaperGraph();
  for (auto [x, y] : {std::pair{A, B}, {A, C}, {B, C}, {B, D}, {B, E},
                      {C, E}, {C, G}}) {
    auto sizes = EgoComponentSizes(g, x, y);
    EXPECT_TRUE(sizes.empty() || sizes.back() < 2)
        << "(" << x << "," << y << ")";
  }
  EsdIndex index = BuildIndexBasic(g);
  TopKResult h2 = index.Query(UINT32_MAX, 2, false);
  std::set<Edge> h2_edges;
  for (const ScoredEdge& se : h2) h2_edges.insert(se.edge);
  for (auto [x, y] : {std::pair{A, B}, {A, C}, {B, C}, {B, D}, {B, E},
                      {C, E}, {C, G}}) {
    EXPECT_EQ(h2_edges.count(graph::MakeEdge(x, y)), 0u);
  }
}

TEST(PaperExampleTest, Fig2cH4IsTheFifteenCliqueEdges) {
  // "H(4) contains 15 edges which are {(j,k),(j,u),(j,v),(k,u),(k,v),
  // (u,v),(u,p),(u,q),(v,p),(v,q),(p,q),(j,p),(j,q),(k,p),(k,q)}".
  Graph g = PaperGraph();
  EsdIndex index = BuildIndex(g);
  TopKResult h4 = index.Query(UINT32_MAX, 4, false);
  ASSERT_EQ(h4.size(), 15u);
  std::set<Edge> got;
  for (const ScoredEdge& se : h4) {
    EXPECT_EQ(se.score, 1u);
    got.insert(se.edge);
  }
  std::set<Edge> want;
  std::vector<VertexId> clique{J, K, U, V, P, Q};
  for (size_t i = 0; i < clique.size(); ++i) {
    for (size_t j = i + 1; j < clique.size(); ++j) {
      want.insert(graph::MakeEdge(clique[i], clique[j]));
    }
  }
  EXPECT_EQ(got, want);
}

TEST(PaperExampleTest, Fig2dH5AndExample3Tau5) {
  // H(5) = {(u,p),(u,q),(p,q)}, each score 1; they are also the top-3
  // answer for k=3, tau=5 (Example 3).
  Graph g = PaperGraph();
  EsdIndex index = BuildIndex(g);
  TopKResult h5 = index.Query(UINT32_MAX, 5, false);
  ASSERT_EQ(h5.size(), 3u);
  std::set<Edge> got;
  for (const ScoredEdge& se : h5) {
    EXPECT_EQ(se.score, 1u);
    got.insert(se.edge);
  }
  EXPECT_EQ(got, (std::set<Edge>{graph::MakeEdge(U, P), graph::MakeEdge(U, Q),
                                 graph::MakeEdge(P, Q)}));
  // Example 3 via the online algorithm.
  TopKResult online =
      OnlineTopK(g, 3, 5, UpperBoundRule::kCommonNeighbor);
  std::set<Edge> online_edges;
  for (const ScoredEdge& se : online) online_edges.insert(se.edge);
  EXPECT_EQ(online_edges, got);
}

TEST(PaperExampleTest, Example5QueryUsesNextLargerList) {
  // tau=3 is not in C for the 6-clique region... the query at tau=3 must
  // return the same scores as tau=4 for every edge whose components skip
  // size 3 (Theorem 4's argument).
  Graph g = PaperGraph();
  EsdIndex index = BuildIndex(g);
  std::vector<uint32_t> c = index.DistinctSizes();
  EXPECT_TRUE(std::find(c.begin(), c.end(), 3u) == c.end());
  EXPECT_EQ(Scores(index.Query(15, 3, false)),
            Scores(index.Query(15, 4, false)));
}

TEST(PaperExampleTest, Example6InsertionMergesComponents) {
  // Inserting (c,d): {b,c,d,e} becomes a 4-clique, so b and c join one
  // component of (d,e)'s ego-network; c and g likewise; the ego-network of
  // (d,e) collapses to a single component {b,c,f,g}.
  DynamicEsdIndex dyn(PaperGraph());
  ASSERT_TRUE(dyn.InsertEdge(C, D));
  EXPECT_EQ(dyn.ScoreOf(D, E, 1), 1u);
  EXPECT_EQ(dyn.ScoreOf(D, E, 4), 1u);
  // (b,e) also gains: N(be) = {c,d} and now c-d is an edge.
  EXPECT_EQ(dyn.ScoreOf(B, E, 2), 1u);
}

TEST(PaperExampleTest, Example7DeletionSplitsAndCreatesH3) {
  DynamicEsdIndex dyn(PaperGraph());
  ASSERT_TRUE(dyn.DeleteEdge(U, K));
  // (j,k)'s ego-network becomes {v,p,q}: one component of size 3; H(3)
  // must now exist and contain (j,k).
  EXPECT_EQ(dyn.ScoreOf(J, K, 3), 1u);
  std::vector<uint32_t> c = dyn.Index().DistinctSizes();
  EXPECT_TRUE(std::find(c.begin(), c.end(), 3u) != c.end());
  TopKResult h3 = dyn.Index().Query(UINT32_MAX, 3, false);
  bool found = false;
  for (const ScoredEdge& se : h3) found |= se.edge == graph::MakeEdge(J, K);
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace esd::core
