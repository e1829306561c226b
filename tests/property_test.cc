// Cross-family property tests: every top-k algorithm in the library must
// agree on every graph family, parameter setting, and seed below; the
// index invariant must hold after construction by any builder; and the
// maintained index must stay exact through churn. These are the
// "whole-system" checks that tie the modules together.

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_index.h"
#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/naive_topk.h"
#include "core/online_topk.h"
#include "gen/chung_lu.h"
#include "gen/collaboration.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "gen/watts_strogatz.h"
#include "gen/word_association.h"
#include "graph/graph.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace esd {
namespace {

using core::EsdIndex;
using core::OnlineTopK;
using core::Scores;
using core::UpperBoundRule;
using graph::Graph;
using graph::VertexId;

struct Family {
  std::string name;
  std::function<Graph(uint64_t)> make;
};

// Planted partition (stochastic block model): `blocks` communities of
// `size` vertices, each intra-community pair an edge with probability
// p_in, each other pair with probability p_out.
Graph PlantedPartition(uint32_t blocks, uint32_t size, double p_in,
                       double p_out, uint64_t seed) {
  util::Rng rng(seed);
  const VertexId n = blocks * size;
  std::vector<graph::Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.NextBool(u / size == v / size ? p_in : p_out)) {
        edges.push_back(graph::Edge{u, v});
      }
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

std::vector<Family> Families() {
  return {
      {"er_sparse",
       [](uint64_t s) { return gen::ErdosRenyiGnm(120, 300, s); }},
      {"er_dense", [](uint64_t s) { return gen::ErdosRenyiGnp(40, 0.4, s); }},
      {"watts_strogatz",
       [](uint64_t s) { return gen::WattsStrogatz(100, 6, 0.2, s); }},
      {"holme_kim", [](uint64_t s) { return gen::HolmeKim(90, 4, 0.6, s); }},
      {"chung_lu",
       [](uint64_t s) { return gen::ChungLuPowerLaw(150, 2.4, 2.0, 40.0, s); }},
      {"rmat",
       [](uint64_t s) {
         gen::RmatParams p;
         p.scale = 7;
         p.edge_factor = 3.0;
         return gen::Rmat(p, s);
       }},
      {"planted_partition",
       [](uint64_t s) {
         return PlantedPartition(4, 20, 0.35, 0.02, s);
       }},
      {"collaboration",
       [](uint64_t s) {
         gen::CollaborationParams p;
         p.num_authors = 260;
         p.num_papers = 260;
         p.num_communities = 4;
         p.num_bridge_pairs = 1;
         p.num_barbells = 1;
         p.barbell_clique_size = 6;
         return gen::GenerateCollaboration(p, s).graph;
       }},
  };
}

class FamilyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FamilyTest, AllAlgorithmsAgreeOnTopKScores) {
  Family family = Families()[GetParam()];
  for (uint64_t seed : {1ull, 2ull}) {
    Graph g = family.make(seed);
    EsdIndex index = core::BuildIndex(g);
    for (uint32_t tau : {1u, 2u, 3u, 4u}) {
      for (uint32_t k : {1u, 8u, 50u}) {
        std::vector<uint32_t> want = test::NaiveTopScores(g, k, tau);
        EXPECT_EQ(Scores(OnlineTopK(g, k, tau, UpperBoundRule::kMinDegree)),
                  want)
            << family.name << " MD seed=" << seed << " tau=" << tau
            << " k=" << k;
        EXPECT_EQ(
            Scores(OnlineTopK(g, k, tau, UpperBoundRule::kCommonNeighbor)),
            want)
            << family.name << " CN seed=" << seed << " tau=" << tau
            << " k=" << k;
        EXPECT_EQ(Scores(index.Query(k, tau)), want)
            << family.name << " IDX seed=" << seed << " tau=" << tau
            << " k=" << k;
      }
    }
  }
}

TEST_P(FamilyTest, BuildersAgreeAndInvariantHolds) {
  Family family = Families()[GetParam()];
  Graph g = family.make(7);
  EsdIndex basic = core::BuildIndexBasic(g);
  EsdIndex clique = core::BuildIndex(g);
  EsdIndex par = core::BuildIndex(g, core::EsdScorer(), 3);
  test::ExpectIndexesEqual(basic, clique);
  test::ExpectIndexesEqual(basic, par);
  std::vector<graph::EdgeId> ids(g.NumEdges());
  std::iota(ids.begin(), ids.end(), 0);
  test::ExpectIndexInvariant(clique, ids, [&clique](graph::EdgeId e) {
    return clique.EdgeSizes(e);
  });
}

TEST_P(FamilyTest, MaintainedIndexSurvivesChurn) {
  Family family = Families()[GetParam()];
  Graph g = family.make(9);
  util::Rng rng(9 * 1000 + GetParam());
  core::DynamicEsdIndex dyn(g, core::DeletionStrategy::kTargeted);
  const VertexId n = g.NumVertices();
  for (int step = 0; step < 40; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    if (dyn.CurrentGraph().HasEdge(u, v)) {
      dyn.DeleteEdge(u, v);
    } else {
      dyn.InsertEdge(u, v);
    }
  }
  Graph now = dyn.CurrentGraph().Snapshot();
  EsdIndex fresh = core::BuildIndex(now);
  EXPECT_EQ(dyn.Index().NumEntries(), fresh.NumEntries()) << family.name;
  EXPECT_EQ(dyn.Index().DistinctSizes(), fresh.DistinctSizes())
      << family.name;
  for (uint32_t tau : {1u, 2u, 3u}) {
    EXPECT_EQ(Scores(dyn.Query(25, tau)), test::NaiveTopScores(now, 25, tau))
        << family.name << " tau=" << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyTest,
                         ::testing::Range<size_t>(0, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return Families()[info.param].name;
                         });

// Monotonicity properties of the score itself.

TEST(ScorePropertyTest, ScoreNonIncreasingInTau) {
  Graph g = gen::HolmeKim(80, 5, 0.5, 51);
  for (const graph::Edge& e : g.Edges()) {
    uint32_t prev = UINT32_MAX;
    for (uint32_t tau = 1; tau <= 6; ++tau) {
      uint32_t s = core::EdgeScore(g, e.u, e.v, tau);
      EXPECT_LE(s, prev);
      prev = s;
    }
  }
}

TEST(ScorePropertyTest, ScoreBoundedByBothUpperBounds) {
  Graph g = gen::ErdosRenyiGnp(50, 0.25, 53);
  for (const graph::Edge& e : g.Edges()) {
    for (uint32_t tau : {1u, 2u, 3u}) {
      uint32_t s = core::EdgeScore(g, e.u, e.v, tau);
      EXPECT_LE(s, std::min(g.Degree(e.u), g.Degree(e.v)) / tau);
      EXPECT_LE(s, graph::CountCommonNeighbors(g, e.u, e.v) / tau);
    }
  }
}

TEST(ScorePropertyTest, Tau1CountsAllComponents) {
  Graph g = gen::WattsStrogatz(70, 4, 0.3, 57);
  for (const graph::Edge& e : g.Edges()) {
    auto sizes = core::EgoComponentSizes(g, e.u, e.v);
    EXPECT_EQ(core::EdgeScore(g, e.u, e.v, 1), sizes.size());
    uint64_t members = 0;
    for (uint32_t s : sizes) members += s;
    EXPECT_EQ(members, graph::CountCommonNeighbors(g, e.u, e.v));
  }
}

TEST(ScorePropertyTest, InsertingEdgeNeverShrinksCommonNeighborhoods) {
  // Adding an edge can merge ego components of OTHER edges but never
  // removes members — so the total member count is monotone.
  Graph g = gen::ErdosRenyiGnp(30, 0.25, 59);
  core::DynamicEsdIndex dyn(g);
  auto total_members = [&dyn]() {
    uint64_t total = 0;
    const EsdIndex& idx = dyn.Index();
    for (graph::EdgeId e = 0; e < idx.EdgeSlotCount(); ++e) {
      if (!idx.IsLive(e)) continue;
      for (uint32_t s : idx.EdgeSizes(e)) total += s;
    }
    return total;
  };
  util::Rng rng(59);
  uint64_t before = total_members();
  for (int i = 0; i < 15; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(30));
    VertexId v = static_cast<VertexId>(rng.NextBounded(30));
    if (u == v || dyn.CurrentGraph().HasEdge(u, v)) continue;
    dyn.InsertEdge(u, v);
    uint64_t after = total_members();
    EXPECT_GE(after, before);
    before = after;
  }
}

}  // namespace
}  // namespace esd
