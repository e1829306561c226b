#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/naive_topk.h"
#include "core/online_topk.h"
#include "gen/collaboration.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/watts_strogatz.h"
#include "graph/builder.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "tests/dsu_oracle.h"
#include "tests/test_helpers.h"
#include "util/dsu.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace esd::core {
namespace {

using graph::Edge;
using graph::EdgeId;
using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

// Reconstruction of the locally-determined parts of the paper's running
// example (Fig. 1(a)). Vertex ids:
//   a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10 u=11 v=12 p=13 q=14 w=15
// The construction satisfies Examples 1 and 2 ((f,g)'s ego-network is
// {d,e,h,i} with components {d,e} and {h,i}) and the tau=5 part of
// Example 3 / Fig. 2(d) (H(5) = {(u,p),(u,q),(p,q)} with score 1, realized
// by the 6-clique {j,k,u,v,p,q} plus w adjacent to u, p, q).
constexpr VertexId A = 0, B = 1, C = 2, D = 3, E = 4, F = 5, G = 6, H = 7,
                   I = 8, J = 9, K = 10, U = 11, V = 12, P = 13, Q = 14,
                   W = 15;

Graph PaperGraph() {
  GraphBuilder b(16);
  // Left region (a..g).
  for (auto [x, y] : std::vector<std::pair<VertexId, VertexId>>{
           {A, B}, {A, C}, {B, C}, {B, D}, {B, E}, {C, E}, {C, G}, {D, E}}) {
    b.AddEdge(x, y);
  }
  // f and g adjacent to d, e, h, i; edge (f,g); edge (h,i).
  for (VertexId x : {D, E, H, I}) {
    b.AddEdge(F, x);
    b.AddEdge(G, x);
  }
  b.AddEdge(F, G);
  b.AddEdge(H, I);
  // 6-clique {j,k,u,v,p,q}.
  std::vector<VertexId> clique{J, K, U, V, P, Q};
  for (size_t i = 0; i < clique.size(); ++i) {
    for (size_t j = i + 1; j < clique.size(); ++j) {
      b.AddEdge(clique[i], clique[j]);
    }
  }
  // w adjacent to u, p, q.
  b.AddEdge(W, U);
  b.AddEdge(W, P);
  b.AddEdge(W, Q);
  return b.Build();
}

// ---------------------------------------------------------------------------
// Ego network / scores (Definitions 1-2)
// ---------------------------------------------------------------------------

TEST(EgoNetworkTest, PaperExample1And2) {
  Graph g = PaperGraph();
  // N(fg) = {d, e, h, i} with components {d,e} and {h,i}.
  std::vector<VertexId> common = graph::CommonNeighbors(g, F, G);
  EXPECT_EQ(common, (std::vector<VertexId>{D, E, H, I}));
  std::vector<uint32_t> sizes = EgoComponentSizes(g, F, G);
  EXPECT_EQ(sizes, (std::vector<uint32_t>{2, 2}));
  EXPECT_EQ(EdgeScore(g, F, G, 1), 2u);
  EXPECT_EQ(EdgeScore(g, F, G, 2), 2u);
  EXPECT_EQ(EdgeScore(g, F, G, 3), 0u);
}

TEST(EgoNetworkTest, PaperExample3Tau5) {
  Graph g = PaperGraph();
  // Only (u,p), (u,q), (p,q) have a component of size >= 5.
  for (auto [x, y] : {std::pair{U, P}, {U, Q}, {P, Q}}) {
    EXPECT_EQ(EdgeScore(g, x, y, 5), 1u);
  }
  EXPECT_EQ(EdgeScore(g, J, K, 5), 0u);   // component {u,v,p,q} has size 4
  EXPECT_EQ(EdgeScore(g, J, K, 4), 1u);
  EXPECT_EQ(EdgeScore(g, Q, W, 2), 1u);   // component {u,p}
}

TEST(EgoNetworkTest, DynamicGraphOverloadMatches) {
  Graph g = PaperGraph();
  graph::DynamicGraph d(g);
  for (const Edge& e : g.Edges()) {
    EXPECT_EQ(EgoComponentSizes(g, e.u, e.v), EgoComponentSizes(d, e.u, e.v));
  }
}

TEST(EgoNetworkTest, ProbePoliciesAgreeOnZoo) {
  using graph::EgoProbe;
  for (const auto& [name, g] : test::Zoo()) {
    uint64_t shorter_side_members = 0;  // members that take the probe path
    for (const Edge& e : g.Edges()) {
      EXPECT_EQ(EgoComponentSizes(g, e.u, e.v, EgoProbe::kScanNeighbors),
                EgoComponentSizes(g, e.u, e.v, EgoProbe::kShorterSide))
          << name << " edge (" << e.u << "," << e.v << ")";
      const std::vector<VertexId> common =
          graph::CommonNeighbors(g, e.u, e.v);
      for (VertexId w : common) {
        shorter_side_members += g.Degree(w) > common.size();
      }
    }
    if (name.rfind("star-hub-clique", 0) == 0) {
      EXPECT_GT(shorter_side_members, 0u) << name;
    }
  }
}

// Independent reference: components of G[N(uv)] by pairwise adjacency tests.
template <typename G>
std::vector<uint32_t> ReferenceEgoSizes(const G& g, VertexId u, VertexId v) {
  auto nu = g.Neighbors(u);
  auto nv = g.Neighbors(v);
  std::vector<VertexId> common;
  std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                        std::back_inserter(common));
  test::Dsu dsu(common.size());
  for (uint32_t i = 0; i < common.size(); ++i) {
    for (uint32_t j = i + 1; j < common.size(); ++j) {
      if (g.HasEdge(common[i], common[j])) dsu.Union(i, j);
    }
  }
  std::vector<uint32_t> sizes;
  for (uint32_t i = 0; i < common.size(); ++i) {
    if (dsu.Find(i) == i) sizes.push_back(dsu.ComponentSize(i));
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

// The thread's scratch serves a large graph, then a smaller one, then a
// DynamicGraph that grows past both through AddVertex: no stamp from an
// earlier graph and no stale array size may leak into a later answer.
TEST(EgoNetworkTest, ThreadScratchSurvivesGraphChanges) {
  const Graph large = gen::HolmeKim(300, 5, 0.6, 4);
  const Graph small = gen::ErdosRenyiGnp(40, 0.3, 9);
  for (const Graph* g : {&large, &small}) {
    for (const Edge& e : g->Edges()) {
      ASSERT_EQ(EgoComponentSizes(*g, e.u, e.v),
                ReferenceEgoSizes(*g, e.u, e.v));
    }
  }
  graph::DynamicGraph d(small);
  util::Rng rng(12);
  for (int step = 0; step < 400; ++step) {
    // Each new vertex closes a triangle on a random existing edge.
    const VertexId x = d.AddVertex();
    const VertexId a = static_cast<VertexId>(rng.NextBounded(x));
    if (d.Degree(a) == 0) continue;
    const VertexId b = d.Neighbors(a)[rng.NextBounded(d.Degree(a))];
    d.InsertEdge(x, a);
    d.InsertEdge(x, b);
    for (auto [p, q] : {std::pair{x, a}, {x, b}, {a, b}}) {
      ASSERT_EQ(EgoComponentSizes(d, p, q), ReferenceEgoSizes(d, p, q))
          << "step " << step;
    }
  }
  ASSERT_GT(d.NumVertices(), large.NumVertices());
  const Graph grown = d.Snapshot();
  for (const Edge& e : grown.Edges()) {
    ASSERT_EQ(EgoComponentSizes(d, e.u, e.v), ReferenceEgoSizes(d, e.u, e.v));
    ASSERT_EQ(EgoComponentSizes(grown, e.u, e.v),
              ReferenceEgoSizes(grown, e.u, e.v));
  }
}

TEST(EgoNetworkTest, NoCommonNeighborsEmpty) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  EXPECT_TRUE(EgoComponentSizes(g, 0, 1).empty());
  EXPECT_EQ(EdgeScore(g, 0, 1, 1), 0u);
}

TEST(EgoNetworkTest, ScoreFromSizes) {
  std::vector<uint32_t> sizes{1, 1, 2, 4, 4, 7};
  EXPECT_EQ(ScoreFromSizes(sizes, 1), 6u);
  EXPECT_EQ(ScoreFromSizes(sizes, 2), 4u);
  EXPECT_EQ(ScoreFromSizes(sizes, 3), 3u);
  EXPECT_EQ(ScoreFromSizes(sizes, 4), 3u);
  EXPECT_EQ(ScoreFromSizes(sizes, 5), 1u);
  EXPECT_EQ(ScoreFromSizes(sizes, 8), 0u);
  EXPECT_EQ(ScoreFromSizes({}, 1), 0u);
}

TEST(EgoNetworkTest, EgoComponentsMembersMatchSizes) {
  for (uint64_t seed : {61ull, 62ull}) {
    Graph g = gen::ErdosRenyiGnp(40, 0.3, seed);
    for (const Edge& e : g.Edges()) {
      auto components = EgoComponents(g, e.u, e.v);
      std::vector<uint32_t> sizes;
      for (const auto& members : components) {
        sizes.push_back(static_cast<uint32_t>(members.size()));
        // Members are common neighbors and internally connected (every
        // member has an in-component neighbor unless the component is a
        // singleton).
        for (VertexId w : members) {
          EXPECT_TRUE(g.HasEdge(e.u, w));
          EXPECT_TRUE(g.HasEdge(e.v, w));
        }
        if (members.size() > 1) {
          for (VertexId w : members) {
            bool linked = false;
            for (VertexId x : members) linked |= x != w && g.HasEdge(w, x);
            EXPECT_TRUE(linked);
          }
        }
      }
      EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
      EXPECT_EQ(sizes, EgoComponentSizes(g, e.u, e.v));
    }
  }
}

TEST(EgoNetworkTest, EgoComponentsOnPaperEdgeFG) {
  Graph g = PaperGraph();
  auto components = EgoComponents(g, F, G);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], (std::vector<VertexId>{D, E}));
  EXPECT_EQ(components[1], (std::vector<VertexId>{H, I}));
}

TEST(EgoNetworkTest, CliqueEgoIsOneComponent) {
  GraphBuilder b(8);
  for (VertexId i = 0; i < 8; ++i) {
    for (VertexId j = i + 1; j < 8; ++j) b.AddEdge(i, j);
  }
  Graph g = b.Build();
  // In K8, every edge's ego-network is K6: one component of size 6.
  for (const Edge& e : g.Edges()) {
    EXPECT_EQ(EgoComponentSizes(g, e.u, e.v), (std::vector<uint32_t>{6}));
  }
}

// ---------------------------------------------------------------------------
// Naive top-k
// ---------------------------------------------------------------------------

TEST(NaiveTopKTest, PaperExample3Tau2) {
  Graph g = PaperGraph();
  TopKResult r = NaiveTopK(g, 3, 2);
  ASSERT_EQ(r.size(), 3u);
  // The fully-specified facts: (f,g) and (h,i)... our reconstruction pins
  // down (f,g); all three top scores are >= the paper's score 2.
  EXPECT_GE(r[0].score, 2u);
  EXPECT_TRUE(std::is_sorted(r.begin(), r.end(),
                             [](const ScoredEdge& a, const ScoredEdge& b) {
                               return a.score > b.score;
                             }));
}

TEST(NaiveTopKTest, KLargerThanM) {
  Graph g = PaperGraph();
  TopKResult r = NaiveTopK(g, 10000, 2);
  EXPECT_EQ(r.size(), g.NumEdges());
}

TEST(NaiveTopKTest, AllScoresIndexedByEdgeId) {
  Graph g = PaperGraph();
  std::vector<uint32_t> scores = AllEdgeScores(g, 2);
  ASSERT_EQ(scores.size(), g.NumEdges());
  EdgeId fg = g.FindEdge(F, G);
  EXPECT_EQ(scores[fg], 2u);
}

// ---------------------------------------------------------------------------
// Online top-k (Algorithm 1)
// ---------------------------------------------------------------------------

class OnlineVsNaiveTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(OnlineVsNaiveTest, ScoresMatchOnRandomGraphs) {
  auto [k, tau] = GetParam();
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    Graph g = gen::ErdosRenyiGnp(40, 0.25, seed);
    std::vector<uint32_t> want = test::NaiveTopScores(g, k, tau);
    for (UpperBoundRule rule :
         {UpperBoundRule::kMinDegree, UpperBoundRule::kCommonNeighbor}) {
      TopKResult got = OnlineTopK(g, k, tau, rule);
      EXPECT_EQ(Scores(got), want)
          << "k=" << k << " tau=" << tau << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OnlineVsNaiveTest,
    ::testing::Combine(::testing::Values(1u, 3u, 10u, 50u, 1000u),
                       ::testing::Values(1u, 2u, 3u, 5u)));

TEST(OnlineTopKTest, ScoresAreActuallyCorrectPerEdge) {
  Graph g = gen::HolmeKim(150, 5, 0.5, 7);
  TopKResult r = OnlineTopK(g, 20, 2, UpperBoundRule::kCommonNeighbor);
  for (const ScoredEdge& se : r) {
    EXPECT_EQ(se.score, EdgeScore(g, se.edge.u, se.edge.v, 2));
  }
}

TEST(OnlineTopKTest, EmptyAndDegenerateInputs) {
  Graph empty;
  EXPECT_TRUE(OnlineTopK(empty, 5, 2, UpperBoundRule::kMinDegree).empty());
  Graph g = PaperGraph();
  EXPECT_TRUE(OnlineTopK(g, 0, 2, UpperBoundRule::kMinDegree).empty());
  EXPECT_TRUE(OnlineTopK(g, 5, 0, UpperBoundRule::kMinDegree).empty());
}

TEST(OnlineTopKTest, CommonNeighborBoundPrunesAtLeastAsWell) {
  Graph g = gen::HolmeKim(300, 6, 0.5, 9);
  OnlineStats md, cn;
  OnlineTopK(g, 10, 2, UpperBoundRule::kMinDegree, &md);
  OnlineTopK(g, 10, 2, UpperBoundRule::kCommonNeighbor, &cn);
  EXPECT_LE(cn.exact_computations, md.exact_computations);
  EXPECT_GT(md.exact_computations, 0u);
}

TEST(OnlineTopKTest, StatsCountExactComputations) {
  Graph g = PaperGraph();
  OnlineStats stats;
  OnlineTopK(g, 1, 2, UpperBoundRule::kCommonNeighbor, &stats);
  EXPECT_GE(stats.exact_computations, 1u);
  EXPECT_LE(stats.exact_computations, g.NumEdges());
  EXPECT_EQ(stats.heap_pops, stats.exact_computations + 1);
}

TEST(OnlineTopKTest, LargeTauGivesZeroScores) {
  Graph g = PaperGraph();
  TopKResult r = OnlineTopK(g, 4, 100, UpperBoundRule::kCommonNeighbor);
  ASSERT_EQ(r.size(), 4u);
  for (const ScoredEdge& se : r) EXPECT_EQ(se.score, 0u);
}

// ---------------------------------------------------------------------------
// EsdIndex structure (Section IV-A/B)
// ---------------------------------------------------------------------------

TEST(EsdIndexTest, PaperExampleDistinctSizesAndH5) {
  Graph g = PaperGraph();
  EsdIndex index = BuildIndexBasic(g);
  std::vector<uint32_t> c = index.DistinctSizes();
  // Our reconstruction realizes at least the paper's sizes {1, 2, 4, 5}.
  for (uint32_t want : {1u, 2u, 4u, 5u}) {
    EXPECT_TRUE(std::find(c.begin(), c.end(), want) != c.end()) << want;
  }
  // H(5) = {(u,p), (u,q), (p,q)} each with score 1 (Fig. 2(d)).
  TopKResult top = index.Query(3, 5, /*pad_with_zero_edges=*/false);
  ASSERT_EQ(top.size(), 3u);
  std::set<Edge> got;
  for (const ScoredEdge& se : top) {
    EXPECT_EQ(se.score, 1u);
    got.insert(se.edge);
  }
  std::set<Edge> want{graph::MakeEdge(U, P), graph::MakeEdge(U, Q),
                      graph::MakeEdge(P, Q)};
  EXPECT_EQ(got, want);
  // Queries beyond the largest size return no positive-score edges.
  EXPECT_TRUE(index.Query(3, 6, false).empty());
}

TEST(EsdIndexTest, QueryMatchesNaiveOnParamSweep) {
  for (uint64_t seed : {11ull, 12ull}) {
    Graph g = gen::ErdosRenyiGnp(35, 0.3, seed);
    EsdIndex index = BuildIndexBasic(g);
    for (uint32_t tau = 1; tau <= 7; ++tau) {
      for (uint32_t k : {1u, 2u, 5u, 20u, 10000u}) {
        EXPECT_EQ(Scores(index.Query(k, tau)),
                  test::NaiveTopScores(g, k, tau))
            << "seed=" << seed << " tau=" << tau << " k=" << k;
      }
    }
  }
}

TEST(EsdIndexTest, QueryPaddingBehavior) {
  Graph g = PaperGraph();
  EsdIndex index = BuildIndexBasic(g);
  // tau=5: only 3 edges have positive score.
  TopKResult padded = index.Query(10, 5, true);
  EXPECT_EQ(padded.size(), 10u);
  EXPECT_EQ(padded[3].score, 0u);
  TopKResult unpadded = index.Query(10, 5, false);
  EXPECT_EQ(unpadded.size(), 3u);
  // k or tau of zero -> empty.
  EXPECT_TRUE(index.Query(0, 2).empty());
  EXPECT_TRUE(index.Query(3, 0).empty());
}

TEST(EsdIndexTest, InvariantHoldsAfterBulkLoad) {
  Graph g = gen::HolmeKim(120, 5, 0.4, 13);
  EsdIndex index = BuildIndexBasic(g);
  std::vector<EdgeId> ids(g.NumEdges());
  std::iota(ids.begin(), ids.end(), 0);
  test::ExpectIndexInvariant(index, ids, [&index](EdgeId e) {
    return index.EdgeSizes(e);
  });
}

TEST(EsdIndexTest, ScoreOfMatchesDefinition) {
  Graph g = PaperGraph();
  EsdIndex index = BuildIndexBasic(g);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& uv = g.EdgeAt(e);
    for (uint32_t tau = 1; tau <= 6; ++tau) {
      EXPECT_EQ(index.ScoreOf(e, tau), EdgeScore(g, uv.u, uv.v, tau));
    }
  }
}

TEST(EsdIndexTest, SetEdgeSizesMovesEntriesAcrossLists) {
  EsdIndex index;
  EdgeId e0 = index.RegisterEdge({0, 1});
  EdgeId e1 = index.RegisterEdge({0, 2});
  index.SetEdgeSizes(e0, std::vector<uint32_t>{1, 3});
  index.SetEdgeSizes(e1, std::vector<uint32_t>{3, 3});
  EXPECT_EQ(index.DistinctSizes(), (std::vector<uint32_t>{1, 3}));
  // H(1): e0 score 2, e1 score 2. H(3): e0 score 1, e1 score 2.
  EXPECT_EQ(index.Query(1, 3, false)[0].score, 2u);
  // Shrink e1: drops out of H(3)... and size 3 still owned by e0.
  index.SetEdgeSizes(e1, std::vector<uint32_t>{2});
  EXPECT_EQ(index.DistinctSizes(), (std::vector<uint32_t>{1, 2, 3}));
  TopKResult top3 = index.Query(5, 3, false);
  ASSERT_EQ(top3.size(), 1u);
  EXPECT_EQ(top3[0].score, 1u);
  // Clear e0: sizes 1 and 3 disappear entirely, leaving e1's single entry
  // in H(2).
  index.SetEdgeSizes(e0, {});
  EXPECT_EQ(index.DistinctSizes(), (std::vector<uint32_t>{2}));
  EXPECT_EQ(index.NumEntries(), 1u);
}

TEST(EsdIndexTest, NewSizeClonesNextLargerList) {
  EsdIndex index;
  EdgeId e0 = index.RegisterEdge({0, 1});
  EdgeId e1 = index.RegisterEdge({0, 2});
  index.SetEdgeSizes(e0, std::vector<uint32_t>{5});
  index.SetEdgeSizes(e1, std::vector<uint32_t>{7});
  // Introduce size 6 on e0: H(6) must contain e1 (max 7 >= 6) too.
  index.SetEdgeSizes(e0, std::vector<uint32_t>{6});
  TopKResult r = index.Query(10, 6, false);
  EXPECT_EQ(r.size(), 2u);
  // And a size below everything.
  index.SetEdgeSizes(e1, std::vector<uint32_t>{2, 7});
  r = index.Query(10, 2, false);
  EXPECT_EQ(r.size(), 2u);
  r = index.Query(10, 7, false);
  EXPECT_EQ(r.size(), 1u);
}

TEST(EsdIndexTest, RegisterUnregisterReusesIds) {
  EsdIndex index;
  EdgeId a = index.RegisterEdge({0, 1});
  index.SetEdgeSizes(a, std::vector<uint32_t>{2});
  index.SetEdgeSizes(a, {});
  index.UnregisterEdge(a);
  EXPECT_EQ(index.NumRegisteredEdges(), 0u);
  EdgeId b = index.RegisterEdge({5, 9});
  EXPECT_EQ(a, b);  // id reuse
  EXPECT_EQ(index.EdgeAt(b), graph::MakeEdge(5, 9));
  EXPECT_TRUE(index.EdgeSizes(b).empty());
}

TEST(EsdIndexTest, RandomizedSetEdgeSizesKeepsInvariant) {
  util::Rng rng(271);
  EsdIndex index;
  constexpr int kEdges = 30;
  std::vector<EdgeId> ids;
  for (int i = 0; i < kEdges; ++i) {
    ids.push_back(index.RegisterEdge(
        graph::MakeEdge(static_cast<VertexId>(i), static_cast<VertexId>(100 + i))));
  }
  std::vector<std::vector<uint32_t>> ref(kEdges);
  for (int step = 0; step < 400; ++step) {
    EdgeId e = ids[rng.NextBounded(kEdges)];
    std::vector<uint32_t> sizes;
    size_t len = rng.NextBounded(5);
    for (size_t i = 0; i < len; ++i) {
      sizes.push_back(1 + static_cast<uint32_t>(rng.NextBounded(9)));
    }
    std::sort(sizes.begin(), sizes.end());
    index.SetEdgeSizes(e, sizes);
    ref[e] = sizes;
    if (step % 20 == 0) {
      test::ExpectIndexInvariant(index, ids, [&ref](EdgeId id) -> const auto& {
        return ref[id];
      });
    }
  }
  test::ExpectIndexInvariant(
      index, ids, [&ref](EdgeId id) -> const auto& { return ref[id]; });
}

// ---------------------------------------------------------------------------
// Index builders (Algorithms 2, 3, and the parallel variant)
// ---------------------------------------------------------------------------

class BuilderEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuilderEquivalenceTest, AllBuildersProduceIdenticalIndexes) {
  uint64_t seed = GetParam();
  Graph g = gen::ErdosRenyiGnp(45, 0.25, seed);
  EsdIndex basic = BuildIndexBasic(g);
  EsdIndex fast = BuildIndexBasic(g, graph::EgoProbe::kShorterSide);
  EsdIndex clique = BuildIndex(g);
  EsdIndex par1 = BuildIndex(g, EsdScorer(), 1);
  EsdIndex par4 = BuildIndex(g, EsdScorer(), 4);
  test::ExpectIndexesEqual(basic, fast);
  test::ExpectIndexesEqual(basic, clique);
  test::ExpectIndexesEqual(basic, par1);
  test::ExpectIndexesEqual(basic, par4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BuilderEquivalenceTest,
                         ::testing::Values(101, 102, 103, 104, 105));

// Algorithm 3 on a 4-thread pool in `mode`, bulk-loaded into H.
EsdIndex PooledCliqueIndex(const Graph& g, ParallelMode mode) {
  util::ThreadPool pool(4);
  EsdIndex index;
  index.BulkLoad(g.Edges(), CliqueComponentSizes(g, &pool, nullptr, mode));
  return index;
}

TEST(BuilderTest, VertexParallelModeMatchesEdgeParallel) {
  for (uint64_t seed : {301ull, 302ull}) {
    Graph g = gen::ErdosRenyiGnp(50, 0.3, seed);
    EsdIndex edge_par = PooledCliqueIndex(g, ParallelMode::kEdgeParallel);
    EsdIndex vertex_par = PooledCliqueIndex(g, ParallelMode::kVertexParallel);
    test::ExpectIndexesEqual(edge_par, vertex_par);
    test::ExpectIndexesEqual(edge_par, BuildIndexBasic(g));
  }
}

TEST(BuilderTest, CliqueBuilderOnStructuredGraphs) {
  for (Graph g : {PaperGraph(), gen::WattsStrogatz(80, 6, 0.2, 5),
                  gen::HolmeKim(100, 4, 0.6, 6)}) {
    test::ExpectIndexesEqual(BuildIndexBasic(g), BuildIndex(g));
  }
}

TEST(BuilderTest, CliqueBuilderExportsDsu) {
  Graph g = PaperGraph();
  util::KeyedDsuPool dsu;
  CliqueComponentSizes(g, nullptr, &dsu);
  ASSERT_EQ(dsu.size(), g.NumEdges());
  std::vector<uint32_t> sizes;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& uv = g.EdgeAt(e);
    dsu[e].ComponentSizes(&sizes);
    EXPECT_EQ(sizes, EgoComponentSizes(g, uv.u, uv.v));
  }
}

TEST(BuilderTest, EmptyAndTriangleFreeGraphs) {
  Graph empty;
  EXPECT_EQ(BuildIndexBasic(empty).NumLists(), 0u);
  EXPECT_EQ(BuildIndex(empty).NumLists(), 0u);
  // A tree has no common neighbors at all: C is empty.
  GraphBuilder b(6);
  for (VertexId i = 1; i < 6; ++i) b.AddEdge(0, i);
  Graph star = b.Build();
  EsdIndex index = BuildIndex(star);
  EXPECT_EQ(index.NumLists(), 0u);
  EXPECT_EQ(index.NumEntries(), 0u);
  // Queries pad with zero-score edges.
  EXPECT_EQ(index.Query(3, 1).size(), 3u);
}

TEST(BuilderTest, IndexSizeBoundedByCommonNeighborSum) {
  // Theorem 3: entries <= sum over edges of |N(uv)|... each edge appears in
  // at most max-component-size <= |N(uv)| lists.
  Graph g = gen::HolmeKim(200, 5, 0.5, 77);
  EsdIndex index = BuildIndex(g);
  uint64_t bound = 0;
  for (const Edge& e : g.Edges()) {
    bound += graph::CountCommonNeighbors(g, e.u, e.v);
  }
  EXPECT_LE(index.NumEntries(), bound + g.NumEdges());
  EXPECT_GT(index.MemoryBytes(), 0u);
}

// ---------------------------------------------------------------------------
// Cross-algorithm agreement on realistic graphs
// ---------------------------------------------------------------------------

TEST(CrossAlgorithmTest, IndexVsOnlineVsNaiveOnCollaboration) {
  gen::CollaborationParams p;
  p.num_authors = 600;
  p.num_papers = 700;
  p.num_communities = 6;
  Graph g = gen::GenerateCollaboration(p, 201).graph;
  EsdIndex index = BuildIndex(g);
  for (uint32_t tau : {1u, 2u, 3u}) {
    for (uint32_t k : {1u, 10u, 40u}) {
      std::vector<uint32_t> want = test::NaiveTopScores(g, k, tau);
      EXPECT_EQ(Scores(index.Query(k, tau)), want);
      EXPECT_EQ(
          Scores(OnlineTopK(g, k, tau, UpperBoundRule::kCommonNeighbor)),
          want);
    }
  }
}

}  // namespace
}  // namespace esd::core
