#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/vertex_diversity.h"
#include "baselines/vertex_diversity_index.h"
#include "core/dynamic_index.h"
#include "core/edge_dsu_arena.h"
#include "core/ego_network.h"
#include "core/index_builder.h"
#include "core/index_io.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "graph/builder.h"
#include "graph/orientation.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace esd {
namespace {

using graph::Edge;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

// ---------------------------------------------------------------------------
// EdgeDsuArena
// ---------------------------------------------------------------------------

TEST(EdgeDsuArenaTest, MembersAreCommonNeighborhoods) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 1);
  graph::DegreeOrderedDag dag(g);
  core::EdgeDsuArena arena(dag);
  ASSERT_EQ(arena.NumEdges(), g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    // Upper, middle and lower sections, each exactly, in ascending id.
    const test::RankSections want = test::RankSectionsOf(g, dag, e);
    auto got = arena.Members(e);
    EXPECT_EQ(std::vector<VertexId>(got.begin(), got.end()),
              want.Concatenated());
    EXPECT_EQ(arena.UpperSize(e), want.upper.size());
  }
}

TEST(EdgeDsuArenaTest, UnionsMatchEgoComponents) {
  Graph g = gen::ErdosRenyiGnp(25, 0.35, 2);
  graph::DegreeOrderedDag dag(g);
  core::EdgeDsuArena arena(dag);
  // Union along every ego-network edge, then component sizes must match
  // the BFS ground truth.
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    auto members = arena.Members(e);
    for (uint32_t i = 0; i < members.size(); ++i) {
      for (uint32_t j = i + 1; j < members.size(); ++j) {
        if (g.HasEdge(members[i], members[j])) {
          arena.Union(arena.Slot(e, i), arena.Slot(e, j));
        }
      }
    }
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& uv = g.EdgeAt(e);
    EXPECT_EQ(arena.ComponentSizes(e), core::EgoComponentSizes(g, uv.u, uv.v));
  }
}

TEST(EdgeDsuArenaTest, ExportDsusPreservesComponents) {
  Graph g = gen::HolmeKim(60, 4, 0.5, 3);
  graph::DegreeOrderedDag dag(g);
  core::EdgeDsuArena arena(dag);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    auto members = arena.Members(e);
    for (uint32_t i = 0; i + 1 < members.size(); i += 2) {
      arena.Union(arena.Slot(e, i), arena.Slot(e, i + 1));
    }
  }
  util::KeyedDsuPool pool;
  arena.ExportDsus(&pool);
  ASSERT_EQ(pool.size(), g.NumEdges());
  EXPECT_EQ(pool.TotalMembers(), arena.TotalMembers());
  std::vector<uint32_t> sizes;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    util::KeyedDsu k = pool[e];
    k.ComponentSizes(&sizes);
    EXPECT_EQ(sizes, arena.ComponentSizes(e));
    // Same partition, not only same sizes.
    auto members = arena.Members(e);
    for (size_t i = 0; i + 1 < members.size(); i += 2) {
      EXPECT_TRUE(k.Same(members[i], members[i + 1]));
    }
  }
  // Split over a thread pool, the export writes the same slots.
  util::ThreadPool threads(3);
  util::KeyedDsuPool pooled;
  arena.ExportDsus(&pooled, &threads);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto a = pool.Slots(e), b = pooled.Slots(e);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].vertex, b[i].vertex);
      EXPECT_EQ(a[i].parent, b[i].parent);
    }
  }
}

TEST(EdgeDsuArenaTest, ParallelFillMatchesSerial) {
  Graph g = gen::HolmeKim(100, 5, 0.4, 4);
  util::ThreadPool pool(4);
  graph::DegreeOrderedDag dag(g);
  core::EdgeDsuArena serial(dag);
  core::EdgeDsuArena parallel(dag, &pool);
  ASSERT_EQ(serial.TotalMembers(), parallel.TotalMembers());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    auto a = serial.Members(e);
    auto b = parallel.Members(e);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

// ---------------------------------------------------------------------------
// Index serialization
// ---------------------------------------------------------------------------

// The treap engine persists through the frozen file format: Freeze, save,
// load, Thaw. Ids, freed slots and the scorer stamp survive.

TEST(IndexIoTest, RoundTripFreshIndex) {
  Graph g = gen::HolmeKim(200, 5, 0.5, 5);
  core::EsdIndex index = core::BuildIndex(g);
  core::EsdIndex loaded = test::TreapFileRoundTrip(index);
  test::ExpectIndexesEqual(index, loaded);
  EXPECT_EQ(loaded.NumRegisteredEdges(), index.NumRegisteredEdges());
  EXPECT_EQ(loaded.Scorer(), index.Scorer());
  // Queries behave identically.
  for (uint32_t tau : {1u, 2u, 3u}) {
    EXPECT_EQ(core::Scores(loaded.Query(20, tau)),
              core::Scores(index.Query(20, tau)));
  }
}

TEST(IndexIoTest, RoundTripWithFreedSlots) {
  core::EsdIndex index;
  EdgeId a = index.RegisterEdge({0, 1});
  EdgeId b = index.RegisterEdge({1, 2});
  EdgeId c = index.RegisterEdge({2, 3});
  index.SetEdgeSizes(a, std::vector<uint32_t>{1, 2});
  index.SetEdgeSizes(b, std::vector<uint32_t>{3});
  index.SetEdgeSizes(c, std::vector<uint32_t>{2, 2});
  index.SetEdgeSizes(b, {});
  index.UnregisterEdge(b);
  core::EsdIndex loaded = test::TreapFileRoundTrip(index);
  test::ExpectIndexesEqual(index, loaded);
  EXPECT_EQ(loaded.EdgeSlotCount(), index.EdgeSlotCount());
  EXPECT_FALSE(loaded.IsLive(b));
  EXPECT_TRUE(loaded.IsLive(a));
  EXPECT_EQ(loaded.EdgeAt(c), index.EdgeAt(c));
  EXPECT_EQ(test::Values(loaded.EdgeSizes(c)), (std::vector<uint32_t>{2, 2}));
}

TEST(IndexIoTest, FileRoundTrip) {
  Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  core::EsdIndex index = core::BuildIndexBasic(g);
  std::string path = ::testing::TempDir() + "/esd_index_io_test.bin";
  std::string error;
  ASSERT_TRUE(core::SaveFrozenIndex(core::Freeze(index), path, &error))
      << error;
  core::FrozenEsdIndex frozen;
  const core::IndexIoResult res =
      core::LoadFrozenIndex(path, &frozen, core::ScorerKind::kEsd);
  ASSERT_TRUE(res) << res.message;
  test::ExpectIndexesEqual(index, core::Thaw(frozen));
  std::remove(path.c_str());
}

TEST(IndexIoTest, RejectsBadMagicAndTruncationAndCorruption) {
  Graph g = gen::ErdosRenyiGnp(20, 0.3, 9);
  core::EsdIndex index = core::BuildIndexBasic(g);
  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(core::Freeze(index), buffer, &error));
  std::string payload = buffer.str();
  auto load = [](const std::string& bytes) {
    std::stringstream in(bytes);
    core::FrozenEsdIndex out;
    return core::DeserializeFrozenIndex(in, &out, core::ScorerKind::kEsd);
  };

  {
    const core::IndexIoResult res = load("not an index at all");
    EXPECT_EQ(res.status, core::IndexIoStatus::kFormatError);
    EXPECT_NE(res.message.find("magic"), std::string::npos);
  }
  EXPECT_EQ(load(payload.substr(0, payload.size() / 2)).status,
            core::IndexIoStatus::kFormatError);
  {
    std::string corrupt = payload;
    corrupt[corrupt.size() / 2] ^= 0x5A;  // flip bits mid-payload
    EXPECT_EQ(load(corrupt).status, core::IndexIoStatus::kFormatError);
  }
}

TEST(IndexIoTest, LoadMissingFileFails) {
  core::FrozenEsdIndex out;
  const core::IndexIoResult res = core::LoadFrozenIndex(
      "/definitely/not/here.bin", &out, core::ScorerKind::kEsd);
  EXPECT_EQ(res.status, core::IndexIoStatus::kIoError);
  EXPECT_FALSE(res.message.empty());
}

// ---------------------------------------------------------------------------
// Batch updates
// ---------------------------------------------------------------------------

TEST(BatchUpdateTest, MatchesSequentialUpdates) {
  util::Rng rng(11);
  Graph g = gen::ErdosRenyiGnp(25, 0.3, 11);
  core::DynamicEsdIndex seq(g);
  core::DynamicEsdIndex batch(g);
  std::vector<core::DynamicEsdIndex::EdgeUpdate> updates;
  for (int i = 0; i < 60; ++i) {
    auto u = static_cast<VertexId>(rng.NextBounded(25));
    auto v = static_cast<VertexId>(rng.NextBounded(25));
    if (u == v) continue;
    bool exists = seq.CurrentGraph().HasEdge(u, v);
    using Kind = core::DynamicEsdIndex::EdgeUpdate::Kind;
    updates.push_back({exists ? Kind::kDelete : Kind::kInsert, u, v});
    if (exists) {
      seq.DeleteEdge(u, v);
    } else {
      seq.InsertEdge(u, v);
    }
  }
  size_t applied = batch.ApplyBatch(updates);
  EXPECT_EQ(applied, updates.size());
  EXPECT_EQ(batch.Index().NumEntries(), seq.Index().NumEntries());
  EXPECT_EQ(batch.Index().DistinctSizes(), seq.Index().DistinctSizes());
  for (uint32_t tau : {1u, 2u, 3u}) {
    EXPECT_EQ(core::Scores(batch.Query(30, tau)),
              core::Scores(seq.Query(30, tau)));
  }
}

TEST(BatchUpdateTest, InsertThenDeleteSameEdgeInBatch) {
  Graph g = gen::ErdosRenyiGnp(15, 0.4, 13);
  core::DynamicEsdIndex dyn(g);
  uint64_t entries_before = dyn.Index().NumEntries();
  using Kind = core::DynamicEsdIndex::EdgeUpdate::Kind;
  // Find a non-edge.
  VertexId u = 0, v = 1;
  while (dyn.CurrentGraph().HasEdge(u, v)) ++v;
  std::vector<core::DynamicEsdIndex::EdgeUpdate> updates{
      {Kind::kInsert, u, v}, {Kind::kDelete, u, v}};
  EXPECT_EQ(dyn.ApplyBatch(updates), 2u);
  EXPECT_EQ(dyn.Index().NumEntries(), entries_before);
  EXPECT_FALSE(dyn.CurrentGraph().HasEdge(u, v));
}

TEST(BatchUpdateTest, NoopsAreCounted) {
  Graph g = gen::ErdosRenyiGnp(10, 0.5, 17);
  core::DynamicEsdIndex dyn(g);
  const Edge& existing = g.Edges()[0];
  using Kind = core::DynamicEsdIndex::EdgeUpdate::Kind;
  std::vector<core::DynamicEsdIndex::EdgeUpdate> updates{
      {Kind::kInsert, existing.u, existing.v},  // already exists -> no-op
      {Kind::kDelete, 0, 9},                    // likely missing
  };
  size_t applied = dyn.ApplyBatch(updates);
  EXPECT_LE(applied, 1u);
}

// ---------------------------------------------------------------------------
// Vertex structural diversity: online + index
// ---------------------------------------------------------------------------

TEST(VertexOnlineTest, MatchesNaiveScoresOnSweep) {
  for (uint64_t seed : {21ull, 22ull}) {
    Graph g = gen::ErdosRenyiGnp(60, 0.12, seed);
    for (uint32_t tau : {1u, 2u, 3u}) {
      for (uint32_t k : {1u, 5u, 20u, 1000u}) {
        auto naive = baselines::TopKVertexDiversity(
            g, std::min<uint32_t>(k, g.NumVertices()), tau);
        auto online = baselines::OnlineVertexTopK(g, k, tau);
        ASSERT_EQ(online.size(), naive.size());
        for (size_t i = 0; i < naive.size(); ++i) {
          EXPECT_EQ(online[i].score, naive[i].score) << "rank " << i;
        }
      }
    }
  }
}

TEST(VertexOnlineTest, StatsAndDegenerateInputs) {
  Graph g = gen::HolmeKim(200, 4, 0.5, 23);
  baselines::VertexOnlineStats stats;
  auto r = baselines::OnlineVertexTopK(g, 5, 2, &stats);
  EXPECT_EQ(r.size(), 5u);
  EXPECT_GE(stats.exact_computations, 5u);
  EXPECT_LE(stats.exact_computations, g.NumVertices());
  EXPECT_TRUE(baselines::OnlineVertexTopK(g, 0, 2).empty());
  EXPECT_TRUE(baselines::OnlineVertexTopK(Graph(), 5, 2).empty());
}

TEST(VsdIndexTest, QueryMatchesNaive) {
  for (uint64_t seed : {31ull, 32ull}) {
    Graph g = gen::ErdosRenyiGnp(50, 0.15, seed);
    baselines::VsdIndex index(g);
    for (uint32_t tau = 1; tau <= 5; ++tau) {
      for (uint32_t k : {1u, 7u, 25u}) {
        auto naive = baselines::TopKVertexDiversity(g, k, tau);
        auto idx = index.Query(k, tau);
        ASSERT_EQ(idx.size(), naive.size());
        for (size_t i = 0; i < naive.size(); ++i) {
          EXPECT_EQ(idx[i].score, naive[i].score)
              << "tau=" << tau << " k=" << k << " rank=" << i;
        }
      }
    }
  }
}

TEST(VsdIndexTest, PaddingAndEmptyGraph) {
  Graph g = Graph::FromEdges(5, {{0, 1}});
  baselines::VsdIndex index(g);
  EXPECT_EQ(index.Query(4, 1).size(), 4u);
  EXPECT_TRUE(index.Query(4, 1, false).size() <= 2u);
  baselines::VsdIndex empty{Graph()};
  EXPECT_TRUE(empty.Query(3, 1).empty());
}

TEST(VsdIndexTest, SizesAscendingAndEntriesBounded) {
  Graph g = gen::HolmeKim(150, 5, 0.6, 33);
  baselines::VsdIndex index(g);
  auto sizes = index.DistinctSizes();
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
  // Each vertex contributes at most max-comp-size <= d(v) entries.
  uint64_t bound = 2ull * g.NumEdges();
  EXPECT_LE(index.NumEntries(), bound + g.NumVertices());
}

// ---------------------------------------------------------------------------
// Chung–Lu generator
// ---------------------------------------------------------------------------

TEST(ChungLuTest, ExpectedDegreesRoughlyRealized) {
  const uint32_t n = 2000;
  std::vector<double> weights(n, 10.0);  // uniform expected degree 10
  Graph g = gen::ChungLu(weights, 41);
  double avg = 2.0 * g.NumEdges() / n;
  EXPECT_NEAR(avg, 10.0, 1.0);
}

TEST(ChungLuTest, SkewedWeightsMakeHubs) {
  Graph g = gen::ChungLuPowerLaw(3000, 2.3, 2.0, 300.0, 43);
  EXPECT_GT(g.MaxDegree(), 80u);
  EXPECT_GT(g.NumEdges(), 2000u);
}

TEST(ChungLuTest, DeterministicAndDegenerate) {
  std::vector<double> w{3, 2, 1, 1, 0.5};
  EXPECT_EQ(gen::ChungLu(w, 5).Edges(), gen::ChungLu(w, 5).Edges());
  EXPECT_EQ(gen::ChungLu({}, 1).NumVertices(), 0u);
  EXPECT_EQ(gen::ChungLu({0, 0, 0}, 1).NumEdges(), 0u);
}

}  // namespace
}  // namespace esd
