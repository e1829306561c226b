// The ESDIndex+ build kernel: the triangle-scatter arena fill, the CSR
// size hand-off into the slab builder, and the counting-sort slabs, checked
// against independent references over a zoo of graph shapes.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cliques/triangle.h"
#include "core/edge_dsu_arena.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "graph/orientation.h"
#include "tests/test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace esd {
namespace {

using core::FrozenEsdIndex;
using graph::Edge;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

std::vector<VertexId> MergeCommonNeighbors(const Graph& g, const Edge& uv) {
  auto nu = g.Neighbors(uv.u);
  auto nv = g.Neighbors(uv.v);
  std::vector<VertexId> out;
  std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                        std::back_inserter(out));
  return out;
}

FrozenEsdIndex::Parts PartsOf(const FrozenEsdIndex& frozen) {
  FrozenEsdIndex::Parts p;
  p.scorer = frozen.Scorer();
  p.edges.assign(frozen.Edges().begin(), frozen.Edges().end());
  p.live.assign(frozen.LiveMask().begin(), frozen.LiveMask().end());
  p.size_offsets.assign(frozen.SizeOffsets().begin(),
                        frozen.SizeOffsets().end());
  p.size_pool.assign(frozen.SizePool().begin(), frozen.SizePool().end());
  p.sizes.assign(frozen.Sizes().begin(), frozen.Sizes().end());
  p.offsets.assign(frozen.SlabOffsets().begin(), frozen.SlabOffsets().end());
  p.entries.assign(frozen.Entries().begin(), frozen.Entries().end());
  return p;
}

void ExpectAdopted(const FrozenEsdIndex& frozen, const std::string& what) {
  FrozenEsdIndex out;
  std::string error;
  EXPECT_TRUE(FrozenEsdIndex::Adopt(PartsOf(frozen), &out, &error))
      << what << ": " << error;
  EXPECT_TRUE(out == frozen) << what;
}

TEST(BuildKernelTest, ArenaMembersMatchMergedCommonNeighborhoods) {
  for (const auto& [name, g] : test::Zoo()) {
    graph::DegreeOrderedDag dag(g);
    core::EdgeDsuArena arena(dag);
    ASSERT_EQ(arena.NumEdges(), g.NumEdges()) << name;
    const std::vector<uint32_t> support = cliques::EdgeSupport(dag);
    ASSERT_EQ(support, cliques::EdgeSupport(g)) << name;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const std::vector<VertexId> want = MergeCommonNeighbors(g, g.EdgeAt(e));
      auto got = arena.Members(e);
      ASSERT_EQ(std::vector<VertexId>(got.begin(), got.end()), want)
          << name << " edge " << e;
      EXPECT_EQ(support[e], want.size()) << name << " edge " << e;
    }
  }
}

TEST(BuildKernelTest, FrozenBuildMatchesFreezeOfBfsBuild) {
  for (const auto& [name, g] : test::Zoo()) {
    EXPECT_TRUE(core::BuildFrozenIndex(g) ==
                core::Freeze(core::BuildIndexBasic(g)))
        << name;
  }
}

TEST(BuildKernelTest, ParallelBuildMatchesSerialAtOneToFourThreads) {
  for (const auto& [name, g] : test::Zoo()) {
    graph::DegreeOrderedDag dag(g);
    core::EdgeDsuArena serial_arena(dag);
    const FrozenEsdIndex serial = core::BuildFrozenIndex(g);
    for (unsigned threads = 1; threads <= 4; ++threads) {
      util::ThreadPool pool(threads);
      core::EdgeDsuArena arena(dag, &pool);
      ASSERT_EQ(arena.TotalMembers(), serial_arena.TotalMembers()) << name;
      for (EdgeId e = 0; e < g.NumEdges(); ++e) {
        auto a = serial_arena.Members(e);
        auto b = arena.Members(e);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << name << " t=" << threads << " edge " << e;
      }
      for (core::ParallelMode mode : {core::ParallelMode::kEdgeParallel,
                                      core::ParallelMode::kVertexParallel}) {
        EXPECT_TRUE(FrozenEsdIndex::FromSizePool(
                        g.Edges(),
                        core::CliqueComponentSizes(g, &pool, nullptr, mode)) ==
                    serial)
            << name << " t=" << threads;
      }
    }
  }
}

TEST(BuildKernelTest, EveryBuiltAndFrozenImagePassesAdopt) {
  for (const auto& [name, g] : test::Zoo()) {
    const FrozenEsdIndex built = core::BuildFrozenIndex(g);
    ExpectAdopted(built, name + " built");
    ExpectAdopted(core::BuildFrozenIndex(g, core::EsdScorer(), 3),
                  name + " parallel");
    core::EsdIndex index = core::BuildIndex(g);
    const FrozenEsdIndex frozen = core::Freeze(index);
    EXPECT_TRUE(frozen == built) << name;
    ExpectAdopted(frozen, name + " frozen");
    // Freed slots: unregister every fourth edge, then freeze.
    for (EdgeId e = 0; e < index.EdgeSlotCount(); e += 4) {
      index.SetEdgeSizes(e, {});
      index.UnregisterEdge(e);
    }
    ExpectAdopted(core::Freeze(index), name + " frozen with freed slots");
  }
}

// Slabs straight from hand-made multisets with many tied scores, against a
// test-local comparison sort in (score desc, edge asc) order. The multisets
// also reach the builder's fallbacks: a slab whose top score exceeds its
// length, and a value larger than the whole pool.
TEST(BuildKernelTest, TiedScoresMatchComparisonSortReference) {
  const std::vector<std::vector<uint32_t>> shapes = {
      {1}, {1, 1}, {2}, {1, 2}, {1, 1, 1}, {3}, {2, 2}, {}, {1, 1, 2, 3}};
  struct Case {
    std::string name;
    std::vector<std::vector<uint32_t>> sizes;
  };
  std::vector<Case> cases;
  {
    Case ties{"ties", {}};
    util::Rng rng(7);
    for (int e = 0; e < 500; ++e) {
      ties.sizes.push_back(shapes[rng.NextBounded(shapes.size())]);
    }
    cases.push_back(std::move(ties));
  }
  cases.push_back({"top-score-above-slab-length",
                   {{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4}, {2}, {1}}});
  cases.push_back({"value-above-pool-size", {{1, 1}, {1000}, {3, 1000}}});

  for (const Case& c : cases) {
    std::vector<Edge> edges;
    for (VertexId e = 0; e < c.sizes.size(); ++e) edges.push_back({e, e + 1});
    const FrozenEsdIndex frozen = FrozenEsdIndex::FromSizePool(
        edges, core::EdgeSizePool::Pack(
                   c.sizes.size(),
                   [&](size_t e) -> const auto& { return c.sizes[e]; }));
    ExpectAdopted(frozen, c.name);

    std::vector<uint32_t> all;
    for (const auto& s : c.sizes) all.insert(all.end(), s.begin(), s.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    ASSERT_EQ(frozen.DistinctSizes(), all) << c.name;
    for (size_t i = 0; i < all.size(); ++i) {
      std::vector<FrozenEsdIndex::Entry> want;
      for (EdgeId e = 0; e < c.sizes.size(); ++e) {
        const auto& s = c.sizes[e];
        if (s.empty() || s.back() < all[i]) continue;
        const auto score = static_cast<uint32_t>(
            s.end() - std::lower_bound(s.begin(), s.end(), all[i]));
        want.push_back({score, e});
      }
      std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
        return a.score != b.score ? a.score > b.score : a.e < b.e;
      });
      auto got = frozen.ListAt(i);
      EXPECT_EQ(std::vector<FrozenEsdIndex::Entry>(got.begin(), got.end()),
                want)
          << c.name << " c=" << all[i];
    }
  }
}

}  // namespace
}  // namespace esd
