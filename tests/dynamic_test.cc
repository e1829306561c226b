#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_index.h"
#include "core/edge_size_table.h"
#include "core/frozen_index.h"
#include "core/maintainer.h"
#include "core/ego_network.h"
#include "core/index_builder.h"
#include "core/naive_topk.h"
#include "gen/collaboration.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/watts_strogatz.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "tests/dsu_oracle.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace esd::core {
namespace {

using graph::Edge;
using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

// Asserts the dynamic index is indistinguishable from an index rebuilt from
// scratch on the current graph snapshot (same lists, same scores).
void ExpectEqualsFreshRebuild(const DynamicEsdIndex& dyn) {
  Graph snapshot = dyn.CurrentGraph().Snapshot();
  EsdIndex fresh = BuildIndex(snapshot);
  // Dynamic edge ids may differ from snapshot ids after churn, so compare
  // via score multisets per threshold and entry counts per list.
  EXPECT_EQ(dyn.Index().NumEntries(), fresh.NumEntries());
  EXPECT_EQ(dyn.Index().DistinctSizes(), fresh.DistinctSizes());
  for (uint32_t c : fresh.DistinctSizes()) {
    std::vector<uint32_t> a = Scores(dyn.Query(100000, c, false));
    std::vector<uint32_t> b = Scores(fresh.Query(100000, c, false));
    EXPECT_EQ(a, b) << "at threshold c=" << c;
  }
}

// The paper's Fig. 1(a) reconstruction (see core_test.cc).
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

// ---------------------------------------------------------------------------
// Paper worked examples
// ---------------------------------------------------------------------------

TEST(DynamicIndexTest, PaperExample6InsertCD) {
  // Example 6: inserting (c,d) merges the components of (d,e)'s ego-network
  // into a single one ({b,c,f,g}).
  DynamicEsdIndex dyn(PaperGraph());
  EXPECT_EQ(dyn.ScoreOf(D, E, 2), 1u);  // before: {f,g} + isolated b
  EXPECT_EQ(dyn.ScoreOf(D, E, 1), 2u);
  ASSERT_TRUE(dyn.InsertEdge(C, D));
  EXPECT_EQ(dyn.ScoreOf(D, E, 1), 1u);  // one component {b,c,f,g}
  EXPECT_EQ(dyn.ScoreOf(D, E, 4), 1u);
  ExpectEqualsFreshRebuild(dyn);
}

TEST(DynamicIndexTest, PaperExample7DeleteUK) {
  // Example 7: deleting (u,k) breaks the 4-clique {j,k,u,v}; (j,k)'s
  // ego-network becomes {v,p,q} + ... a component of size 3 appears and
  // H(3) must exist afterwards.
  for (DeletionStrategy strategy :
       {DeletionStrategy::kRebuildLocal, DeletionStrategy::kTargeted}) {
    DynamicEsdIndex dyn(PaperGraph(), strategy);
    EXPECT_EQ(dyn.ScoreOf(J, K, 4), 1u);  // {u,v,p,q}
    ASSERT_TRUE(dyn.DeleteEdge(U, K));
    // N(jk) is now {v,p,q} (u no longer adjacent to k), still connected.
    EXPECT_EQ(dyn.ScoreOf(J, K, 3), 1u);
    EXPECT_EQ(dyn.ScoreOf(J, K, 4), 0u);
    std::vector<uint32_t> c = dyn.Index().DistinctSizes();
    EXPECT_TRUE(std::find(c.begin(), c.end(), 3u) != c.end());
    ExpectEqualsFreshRebuild(dyn);
  }
}

// ---------------------------------------------------------------------------
// Unit behaviors
// ---------------------------------------------------------------------------

TEST(DynamicIndexTest, InsertDuplicateAndSelfLoopRejected) {
  DynamicEsdIndex dyn(PaperGraph());
  EXPECT_FALSE(dyn.InsertEdge(F, G));
  EXPECT_FALSE(dyn.InsertEdge(3, 3));
  EXPECT_FALSE(dyn.DeleteEdge(0, 15));  // no such edge
}

TEST(DynamicIndexTest, InsertThenDeleteRoundTrips) {
  Graph g = PaperGraph();
  DynamicEsdIndex dyn(g);
  EsdIndex before = BuildIndex(g);
  ASSERT_TRUE(dyn.InsertEdge(A, W));
  ASSERT_TRUE(dyn.InsertEdge(C, D));
  ASSERT_TRUE(dyn.DeleteEdge(C, D));
  ASSERT_TRUE(dyn.DeleteEdge(A, W));
  ExpectEqualsFreshRebuild(dyn);
  EXPECT_EQ(dyn.Index().NumEntries(), before.NumEntries());
}

TEST(DynamicIndexTest, QueryMatchesNaiveAfterUpdates) {
  DynamicEsdIndex dyn(PaperGraph());
  dyn.InsertEdge(C, D);
  dyn.DeleteEdge(U, K);
  dyn.InsertEdge(W, V);
  Graph now = dyn.CurrentGraph().Snapshot();
  for (uint32_t tau : {1u, 2u, 3u, 4u, 5u}) {
    for (uint32_t k : {1u, 3u, 10u, 100u}) {
      EXPECT_EQ(Scores(dyn.Query(k, tau)), test::NaiveTopScores(now, k, tau))
          << "tau=" << tau << " k=" << k;
    }
  }
}

TEST(DynamicIndexTest, TouchedEdgesIsLocal) {
  // Inserting an edge between two far-apart low-degree vertices touches few
  // edges.
  DynamicEsdIndex dyn(PaperGraph());
  dyn.InsertEdge(A, W);  // no common neighbors
  EXPECT_EQ(dyn.LastUpdateTouchedEdges(), 1u);  // only the new edge itself
}

TEST(DynamicIndexTest, GrowFromEmptyGraph) {
  Graph empty = Graph::FromEdges(6, {});
  DynamicEsdIndex dyn(empty);
  // Build K4 edge by edge.
  std::vector<std::pair<VertexId, VertexId>> edges{{0, 1}, {0, 2}, {0, 3},
                                                   {1, 2}, {1, 3}, {2, 3}};
  for (auto [u, v] : edges) ASSERT_TRUE(dyn.InsertEdge(u, v));
  // Every edge of K4 has ego-network = the other two vertices, connected.
  for (auto [u, v] : edges) EXPECT_EQ(dyn.ScoreOf(u, v, 2), 1u);
  ExpectEqualsFreshRebuild(dyn);
  // Tear it down edge by edge.
  for (auto [u, v] : edges) ASSERT_TRUE(dyn.DeleteEdge(u, v));
  EXPECT_EQ(dyn.Index().NumEntries(), 0u);
  EXPECT_EQ(dyn.Index().NumRegisteredEdges(), 0u);
}

TEST(DynamicIndexTest, DeleteSplitsComponentTargeted) {
  // Path inside an ego-network: common neighbors {x,y,z} of (s,t) connected
  // x-y-z; deleting (x... we delete the middle link (x,y) which is an edge
  // of the graph whose removal splits (s,t)'s ego component.
  GraphBuilder b(5);
  VertexId s = 0, t = 1, x = 2, y = 3, z = 4;
  b.AddEdge(s, t);
  for (VertexId w : {x, y, z}) {
    b.AddEdge(s, w);
    b.AddEdge(t, w);
  }
  b.AddEdge(x, y);
  b.AddEdge(y, z);
  Graph g = b.Build();
  for (DeletionStrategy strategy :
       {DeletionStrategy::kRebuildLocal, DeletionStrategy::kTargeted}) {
    DynamicEsdIndex dyn(g, strategy);
    EXPECT_EQ(dyn.ScoreOf(s, t, 3), 1u);  // {x,y,z} one component
    ASSERT_TRUE(dyn.DeleteEdge(x, y));
    EXPECT_EQ(dyn.ScoreOf(s, t, 3), 0u);
    EXPECT_EQ(dyn.ScoreOf(s, t, 1), 2u);  // {x} and {y,z}
    ExpectEqualsFreshRebuild(dyn);
  }
}

// ---------------------------------------------------------------------------
// Randomized maintenance scripts vs rebuild-from-scratch
// ---------------------------------------------------------------------------

struct ScriptParam {
  uint64_t seed;
  DeletionStrategy strategy;

  friend void PrintTo(const ScriptParam& p, std::ostream* os) {
    *os << "seed" << p.seed
        << (p.strategy == DeletionStrategy::kTargeted ? "_targeted"
                                                      : "_rebuild");
  }
};

class MaintenanceScriptTest
    : public ::testing::TestWithParam<ScriptParam> {};

TEST_P(MaintenanceScriptTest, RandomEditScriptMatchesRebuild) {
  auto [seed, strategy] = GetParam();
  util::Rng rng(seed);
  Graph g = gen::ErdosRenyiGnp(24, 0.3, seed);
  DynamicEsdIndex dyn(g, strategy);
  int edits = 0;
  for (int step = 0; step < 120; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(24));
    VertexId v = static_cast<VertexId>(rng.NextBounded(24));
    if (u == v) continue;
    if (dyn.CurrentGraph().HasEdge(u, v)) {
      ASSERT_TRUE(dyn.DeleteEdge(u, v));
    } else {
      ASSERT_TRUE(dyn.InsertEdge(u, v));
    }
    ++edits;
    if (edits % 10 == 0) ExpectEqualsFreshRebuild(dyn);
  }
  ExpectEqualsFreshRebuild(dyn);
  // Final query cross-check against naive.
  Graph now = dyn.CurrentGraph().Snapshot();
  for (uint32_t tau : {1u, 2u, 3u}) {
    EXPECT_EQ(Scores(dyn.Query(15, tau)), test::NaiveTopScores(now, 15, tau));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaintenanceScriptTest,
    ::testing::Values(ScriptParam{1, DeletionStrategy::kRebuildLocal},
                      ScriptParam{2, DeletionStrategy::kRebuildLocal},
                      ScriptParam{3, DeletionStrategy::kRebuildLocal},
                      ScriptParam{1, DeletionStrategy::kTargeted},
                      ScriptParam{2, DeletionStrategy::kTargeted},
                      ScriptParam{3, DeletionStrategy::kTargeted},
                      ScriptParam{4, DeletionStrategy::kTargeted},
                      ScriptParam{5, DeletionStrategy::kTargeted}));

TEST(MaintenanceDenseTest, CliqueChurn) {
  // Dense graphs exercise the 4-clique paths heavily.
  util::Rng rng(99);
  Graph g = gen::ErdosRenyiGnp(14, 0.6, 99);
  DynamicEsdIndex dyn(g, DeletionStrategy::kTargeted);
  for (int step = 0; step < 60; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(14));
    VertexId v = static_cast<VertexId>(rng.NextBounded(14));
    if (u == v) continue;
    if (dyn.CurrentGraph().HasEdge(u, v)) {
      dyn.DeleteEdge(u, v);
    } else {
      dyn.InsertEdge(u, v);
    }
    if (step % 5 == 0) ExpectEqualsFreshRebuild(dyn);
  }
  ExpectEqualsFreshRebuild(dyn);
}

TEST(MaintenanceDenseTest, StrategiesAgreeWithEachOther) {
  util::Rng rng(7);
  Graph g = gen::WattsStrogatz(40, 6, 0.2, 7);
  DynamicEsdIndex a(g, DeletionStrategy::kRebuildLocal);
  DynamicEsdIndex b(g, DeletionStrategy::kTargeted);
  for (int step = 0; step < 80; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(40));
    VertexId v = static_cast<VertexId>(rng.NextBounded(40));
    if (u == v) continue;
    if (a.CurrentGraph().HasEdge(u, v)) {
      a.DeleteEdge(u, v);
      b.DeleteEdge(u, v);
    } else {
      a.InsertEdge(u, v);
      b.InsertEdge(u, v);
    }
  }
  EXPECT_EQ(a.Index().NumEntries(), b.Index().NumEntries());
  EXPECT_EQ(a.Index().DistinctSizes(), b.Index().DistinctSizes());
  for (uint32_t tau : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(Scores(a.Query(50, tau)), Scores(b.Query(50, tau)));
  }
}

TEST(MaintenanceDenseTest, CollaborationChurnMatchesRebuild) {
  gen::CollaborationParams p;
  p.num_authors = 300;
  p.num_papers = 350;
  p.num_communities = 4;
  p.num_bridge_pairs = 2;
  p.num_barbells = 1;
  Graph g = gen::GenerateCollaboration(p, 111).graph;
  util::Rng rng(111);
  DynamicEsdIndex dyn(g, DeletionStrategy::kTargeted);
  // Delete 30 random existing edges, insert 30 random new ones.
  const auto& edges = g.Edges();
  for (int i = 0; i < 30; ++i) {
    const Edge& e = edges[rng.NextBounded(edges.size())];
    dyn.DeleteEdge(e.u, e.v);
  }
  for (int i = 0; i < 30; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(300));
    VertexId v = static_cast<VertexId>(rng.NextBounded(300));
    if (u != v && !dyn.CurrentGraph().HasEdge(u, v)) dyn.InsertEdge(u, v);
  }
  ExpectEqualsFreshRebuild(dyn);
}

// The writer's pools under seeded churn: inserts that grow multisets and
// M_e runs past their extents, deletes that shrink and free them, and
// freed ids reused. After every update each live edge's C_e equals its
// ego-network's component sizes (one std::vector per edge), its M_e holds
// exactly N(uv) with the partition a tests/dsu_oracle.h Dsu finds over
// the ego-network, and Freeze equals the image packed from those vectors.
// Both pools must compact along the way, so the checks straddle it.
class PoolChurnTest : public ::testing::TestWithParam<DeletionStrategy> {};

// Smallest member of each member's component, in member order: the
// partition of one M_e, independent of its roots and layout.
std::vector<VertexId> PartitionOf(util::KeyedDsu m) {
  std::vector<VertexId> members, out;
  m.ForEachMember([&](VertexId w) { members.push_back(w); });
  std::map<VertexId, VertexId> smallest;  // root -> smallest member
  for (VertexId w : members) smallest.emplace(m.Find(w), w);
  for (VertexId w : members) out.push_back(smallest.at(m.Find(w)));
  return out;
}

// The same through the oracle, over N(uv) of the current graph.
std::vector<VertexId> OraclePartition(const graph::DynamicGraph& g,
                                      const Edge& uv) {
  const std::vector<VertexId> members = g.CommonNeighbors(uv.u, uv.v);
  test::Dsu dsu(members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    for (uint32_t j = i + 1; j < members.size(); ++j) {
      if (g.HasEdge(members[i], members[j])) dsu.Union(i, j);
    }
  }
  std::vector<VertexId> smallest(members.size()), out;
  for (uint32_t i = members.size(); i-- > 0;) smallest[dsu.Find(i)] = i;
  for (uint32_t i = 0; i < members.size(); ++i) {
    out.push_back(members[smallest[dsu.Find(i)]]);
  }
  return out;
}

TEST_P(PoolChurnTest, PoolsMatchOraclesAcrossCompactions) {
  using Writer = Maintainer<EdgeSizeTable>;
  Writer writer(gen::HolmeKim(60, 3, 0.5, 5), EsdScorer(), GetParam());
  util::Rng rng(0xC0117AC7);
  uint64_t checks_after_c = 0, checks_after_m = 0;
  uint64_t last_c = 0, last_m = 0;
  for (int step = 0; step < 1500; ++step) {
    const graph::DynamicGraph& g = writer.CurrentGraph();
    const auto u = static_cast<VertexId>(rng.NextBounded(60));
    const auto v = static_cast<VertexId>(rng.NextBounded(60));
    if (u == v) continue;
    // Keep the density oscillating: grow to ~40% of all pairs, then thin.
    const bool grow = (step / 300) % 2 == 0;
    if (grow ? rng.NextBool(0.8) : rng.NextBool(0.2)) {
      writer.InsertEdge(u, v);
    } else if (g.NumEdges() > 0) {
      // Delete an existing edge: a random neighbour of u, if any.
      auto nbrs = g.Neighbors(u);
      if (!nbrs.empty()) writer.DeleteEdge(u, nbrs[rng.NextBounded(nbrs.size())]);
    }
    const EdgeSizeTable& table = writer.table();
    const uint64_t c = table.SizePool().Compactions();
    const uint64_t m = writer.EdgeDsus().Compactions();
    if (step % 25 != 0 && c == last_c && m == last_m) continue;
    checks_after_c += c != last_c;
    checks_after_m += m != last_m;
    last_c = c;
    last_m = m;
    util::KeyedDsuPool dsus = writer.EdgeDsus();
    std::vector<std::vector<uint32_t>> want(table.EdgeSlotCount());
    for (graph::EdgeId e = 0; e < table.EdgeSlotCount(); ++e) {
      if (!table.IsLive(e)) {
        ASSERT_TRUE(table.EdgeSizes(e).empty());
        ASSERT_EQ(dsus[e].NumMembers(), 0u);
        continue;
      }
      const Edge uv = table.EdgeAt(e);
      ASSERT_EQ(g.FindEdge(uv.u, uv.v), e);
      want[e] = EgoComponentSizes(g, uv.u, uv.v);
      ASSERT_EQ(test::Values(table.EdgeSizes(e)), want[e])
          << "step " << step << " edge " << e;
      ASSERT_EQ(PartitionOf(dsus[e]), OraclePartition(g, uv))
          << "step " << step << " edge " << e;
    }
    const FrozenEsdIndex packed = FrozenEsdIndex::FromSizePool(
        {table.Edges().begin(), table.Edges().end()},
        EdgeSizePool::Pack(want.size(),
                           [&](size_t e) -> const std::vector<uint32_t>& {
                             return want[e];
                           }),
        {table.LiveMask().begin(), table.LiveMask().end()});
    ASSERT_TRUE(Freeze(table) == packed) << "step " << step;
  }
  EXPECT_GT(checks_after_c, 0u) << "the C_e pool never compacted";
  EXPECT_GT(checks_after_m, 0u) << "the M_e pool never compacted";
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, PoolChurnTest,
                         ::testing::Values(DeletionStrategy::kRebuildLocal,
                                           DeletionStrategy::kTargeted));

}  // namespace
}  // namespace esd::core
