#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_index.h"
#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/naive_topk.h"
#include "core/pair_diversity.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "graph/builder.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace esd::core {
namespace {

using graph::Edge;
using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

// ---------------------------------------------------------------------------
// Pair structural diversity (Dong et al. [3])
// ---------------------------------------------------------------------------

TEST(PairDiversityTest, NonEdgePairScored) {
  // u=0 and w=2 are NOT adjacent but share neighbors {1, 3}; 1 and 3 are
  // not adjacent, so the pair (0,2) has two singleton contexts.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  b.AddEdge(3, 2);
  Graph g = b.Build();
  EXPECT_EQ(PairScore(g, 0, 2, 1), 2u);
  EXPECT_EQ(PairScore(g, 0, 2, 2), 0u);
  EXPECT_EQ(PairScore(g, 0, 0, 1), 0u);  // degenerate
  EXPECT_EQ(PairScore(g, 0, 2, 0), 0u);
}

TEST(PairDiversityTest, AgreesWithEdgeScoreOnEdges) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 1);
  for (const Edge& e : g.Edges()) {
    for (uint32_t tau : {1u, 2u, 3u}) {
      EXPECT_EQ(PairScore(g, e.u, e.v, tau), EdgeScore(g, e.u, e.v, tau));
    }
  }
}

std::vector<ScoredPair> BruteNonAdjacentTopK(const Graph& g, uint32_t k,
                                             uint32_t tau) {
  std::vector<ScoredPair> all;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (g.HasEdge(u, v)) continue;
      uint32_t s = PairScore(g, u, v, tau);
      if (s > 0) all.push_back(ScoredPair{u, v, s});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredPair& a, const ScoredPair& b) {
              return a.score > b.score;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

class PairTopKTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairTopKTest, MatchesBruteForceScores) {
  Graph g = gen::ErdosRenyiGnp(35, 0.2, GetParam());
  for (uint32_t tau : {1u, 2u}) {
    for (uint32_t k : {1u, 5u, 15u}) {
      auto got = TopKNonAdjacentPairs(g, k, tau);
      auto want = BruteNonAdjacentTopK(g, k, tau);
      // The online result may include zero-score pairs when fewer than k
      // positive pairs exist; compare positive prefixes.
      size_t want_len = want.size();
      ASSERT_GE(got.size(), want_len);
      for (size_t i = 0; i < want_len; ++i) {
        EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PairTopKTest,
                         ::testing::Values(11, 12, 13, 14));

TEST(PairDiversityTest, ReturnedPairsAreNonAdjacent) {
  Graph g = gen::HolmeKim(120, 5, 0.5, 21);
  for (const ScoredPair& p : TopKNonAdjacentPairs(g, 15, 2)) {
    EXPECT_FALSE(g.HasEdge(p.u, p.v));
    EXPECT_EQ(p.score, PairScore(g, p.u, p.v, 2));
  }
}

TEST(PairDiversityTest, CandidateCapKeepsBestBounds) {
  Graph g = gen::HolmeKim(150, 6, 0.5, 23);
  auto uncapped = TopKNonAdjacentPairs(g, 5, 1, 0);
  auto capped = TopKNonAdjacentPairs(g, 5, 1, 2000);
  // With a generous cap the answers coincide (the cap keeps the pairs with
  // the largest upper bounds at tau=1: score == |N(u)∩N(v)| ... the bound
  // is exact at tau=1 only when the ego-network is edgeless, so compare
  // scores loosely: capped can never beat uncapped.
  ASSERT_EQ(uncapped.size(), capped.size());
  for (size_t i = 0; i < capped.size(); ++i) {
    EXPECT_LE(capped[i].score, uncapped[i].score);
  }
}

TEST(PairDiversityTest, EmptyAndTinyGraphs) {
  EXPECT_TRUE(TopKNonAdjacentPairs(Graph(), 5, 1).empty());
  Graph one = Graph::FromEdges(1, {});
  EXPECT_TRUE(TopKNonAdjacentPairs(one, 5, 1).empty());
  // Complete graph: no non-adjacent pairs at all.
  GraphBuilder b(4);
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = i + 1; j < 4; ++j) b.AddEdge(i, j);
  }
  EXPECT_TRUE(TopKNonAdjacentPairs(b.Build(), 3, 1).empty());
}

// ---------------------------------------------------------------------------
// Vertex-level updates
// ---------------------------------------------------------------------------

TEST(VertexUpdateTest, AddVertexThenConnect) {
  Graph g = gen::ErdosRenyiGnp(15, 0.4, 41);
  DynamicEsdIndex dyn(g);
  VertexId nv = dyn.AddVertex();
  EXPECT_EQ(nv, 15u);
  // Connect the new vertex to a triangle; its edges acquire ego structure.
  ASSERT_TRUE(dyn.InsertEdge(nv, 0));
  ASSERT_TRUE(dyn.InsertEdge(nv, 1));
  ASSERT_TRUE(dyn.InsertEdge(nv, 2));
  Graph now = dyn.CurrentGraph().Snapshot();
  for (uint32_t tau : {1u, 2u}) {
    EXPECT_EQ(Scores(dyn.Query(10, tau)), test::NaiveTopScores(now, 10, tau));
  }
}

TEST(VertexUpdateTest, RemoveVertexEdgesMatchesRebuild) {
  Graph g = gen::HolmeKim(60, 5, 0.5, 43);
  DynamicEsdIndex dyn(g);
  // Remove a well-connected vertex.
  VertexId victim = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > g.Degree(victim)) victim = v;
  }
  size_t removed = dyn.RemoveVertexEdges(victim);
  EXPECT_EQ(removed, g.Degree(victim));
  EXPECT_EQ(dyn.CurrentGraph().Degree(victim), 0u);
  Graph now = dyn.CurrentGraph().Snapshot();
  EsdIndex fresh = BuildIndex(now);
  EXPECT_EQ(dyn.Index().NumEntries(), fresh.NumEntries());
  EXPECT_EQ(dyn.Index().DistinctSizes(), fresh.DistinctSizes());
  for (uint32_t tau : {1u, 2u, 3u}) {
    EXPECT_EQ(Scores(dyn.Query(20, tau)), test::NaiveTopScores(now, 20, tau));
  }
}

TEST(VertexUpdateTest, RemoveIsolatedVertexIsNoop) {
  Graph g = Graph::FromEdges(5, {{0, 1}});
  DynamicEsdIndex dyn(g);
  EXPECT_EQ(dyn.RemoveVertexEdges(4), 0u);
  EXPECT_EQ(dyn.RemoveVertexEdges(99), 0u);  // out of range
}

}  // namespace
}  // namespace esd::core
