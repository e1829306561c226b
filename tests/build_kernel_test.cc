// The ESDIndex+ build kernel: the one-listing arena fill, the 4-clique
// enumerator over the arena's upper sections, the CSR size hand-off into
// the slab builder, and the counting-sort slabs, checked against
// independent references over a zoo of graph shapes.

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cliques/triangle.h"
#include "core/edge_dsu_arena.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "graph/orientation.h"
#include "tests/four_clique_oracle.h"
#include "tests/test_helpers.h"
#include "util/dsu.h"
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

// The zoo, the 4-clique tests' Erdős–Rényi sweep, K_8 and the five
// dataset shapes at scale 0.05.
const std::vector<std::pair<std::string, Graph>>& ArenaGraphs() {
  static const std::vector<std::pair<std::string, Graph>> graphs = [] {
    std::vector<std::pair<std::string, Graph>> out = test::Zoo();
    const std::tuple<uint32_t, double, uint64_t> sweep[] = {
        {12, 0.3, 1}, {15, 0.4, 2},  {20, 0.35, 3}, {20, 0.5, 4},
        {25, 0.25, 5}, {10, 0.8, 6}, {18, 0.15, 7}, {30, 0.2, 8}};
    for (const auto& [n, p, seed] : sweep) {
      out.emplace_back("gnp-" + std::to_string(seed),
                        gen::ErdosRenyiGnp(n, p, seed));
    }
    out.emplace_back("K8", test::Complete(8));
    for (const char* name :
         {"pokec-s", "wikitalk-s", "dblp-s", "youtube-s", "livejournal-s"}) {
      out.emplace_back(name, gen::LoadStandardDataset(name, 0.05).graph);
    }
    return out;
  }();
  return graphs;
}

TEST(BuildKernelTest, ArenaMembersMatchMergedCommonNeighborhoods) {
  for (const auto& [name, g] : ArenaGraphs()) {
    graph::DegreeOrderedDag dag(g);
    core::EdgeDsuArena arena(dag);
    ASSERT_EQ(arena.NumEdges(), g.NumEdges()) << name;
    const std::vector<uint32_t> support = cliques::EdgeSupport(dag);
    ASSERT_EQ(support, cliques::EdgeSupport(g)) << name;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      // Each of the three sections exactly, in ascending id.
      const test::RankSections want = test::RankSectionsOf(g, dag, e);
      auto got = arena.Members(e);
      ASSERT_EQ(std::vector<VertexId>(got.begin(), got.end()),
                want.Concatenated())
          << name << " edge " << e;
      ASSERT_EQ(arena.UpperSize(e), want.upper.size()) << name << " edge " << e;
      std::vector<VertexId> merged(got.begin(), got.end());
      std::sort(merged.begin(), merged.end());
      EXPECT_EQ(merged, MergeCommonNeighbors(g, g.EdgeAt(e)))
          << name << " edge " << e;
      EXPECT_EQ(support[e], got.size()) << name << " edge " << e;
    }
  }
}

// Triangle t is the t-th of the u-major listing; its three recorded slots
// hold its three opposite vertices, and its upper slot's section finds it.
TEST(BuildKernelTest, ArenaTriangleSlotsHoldOppositeVertices) {
  for (const auto& [name, g] : ArenaGraphs()) {
    graph::DegreeOrderedDag dag(g);
    core::EdgeDsuArena arena(dag);
    auto expect_member = [&](EdgeId e, uint32_t slot, VertexId want) {
      const uint32_t i = slot - arena.Slot(e, 0);
      ASSERT_LT(i, arena.Members(e).size()) << name << " edge " << e;
      EXPECT_EQ(arena.Members(e)[i], want) << name << " edge " << e;
    };
    uint32_t t = 0;
    cliques::ForEachTriangle(dag, [&](const cliques::Triangle& tri) {
      const core::EdgeDsuArena::TriangleSlots& s = arena.SlotsOf(t);
      expect_member(tri.uv, s.uv, tri.w);
      expect_member(tri.uw, s.uw, tri.v);
      expect_member(tri.vw, s.vw, tri.u);
      EXPECT_LT(s.uv - arena.Slot(tri.uv, 0), arena.UpperSize(tri.uv));
      uint32_t cursor = 0;
      EXPECT_EQ(arena.UpperTriangle(tri.uv, tri.w, &cursor), t) << name;
      ++t;
    });
    EXPECT_EQ(t, arena.NumTriangles()) << name;
    EXPECT_EQ(3 * uint64_t{t}, arena.TotalMembers()) << name;
    // Ascending lookups sharing one galloping cursor, every member and
    // every third one.
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      auto upper = arena.Members(e).first(arena.UpperSize(e));
      for (uint32_t stride : {1u, 3u}) {
        uint32_t cursor = 0;
        for (uint32_t i = 0; i < upper.size(); i += stride) {
          EXPECT_EQ(arena.UpperTriangle(e, upper[i], &cursor),
                    arena.FirstTriangle(e) + i)
              << name << " edge " << e;
          EXPECT_EQ(cursor, i);
        }
      }
    }
  }
}

TEST(BuildKernelTest, ParallelArenaFillMatchesSerialSlotForSlot) {
  for (const auto& [name, g] : ArenaGraphs()) {
    graph::DegreeOrderedDag dag(g);
    core::EdgeDsuArena serial(dag);
    for (unsigned threads = 1; threads <= 4; ++threads) {
      util::ThreadPool pool(threads);
      core::EdgeDsuArena pooled(dag, &pool);
      ASSERT_EQ(pooled.TotalMembers(), serial.TotalMembers()) << name;
      ASSERT_EQ(pooled.NumTriangles(), serial.NumTriangles()) << name;
      for (EdgeId e = 0; e < g.NumEdges(); ++e) {
        auto a = serial.Members(e);
        auto b = pooled.Members(e);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << name << " t=" << threads << " edge " << e;
        ASSERT_EQ(pooled.UpperSize(e), serial.UpperSize(e)) << name;
        ASSERT_EQ(pooled.FirstTriangle(e), serial.FirstTriangle(e)) << name;
      }
      for (uint32_t t = 0; t < serial.NumTriangles(); ++t) {
        const auto& a = serial.SlotsOf(t);
        const auto& b = pooled.SlotsOf(t);
        ASSERT_TRUE(a.uv == b.uv && a.uw == b.uw && a.vw == b.vw)
            << name << " t=" << threads << " triangle " << t;
        ASSERT_EQ(pooled.TriangleEdgeVW(t), serial.TriangleEdgeVW(t))
            << name << " t=" << threads << " triangle " << t;
      }
    }
  }
}

// The arena enumerator emits the DAG oracle's cliques in its order, all
// thirteen fields, and the same set from random arc ranges in shuffled
// vertex order; the pooled fill's arena gives the same sequence.
TEST(BuildKernelTest, ArenaEnumeratorMatchesDagOracle) {
  for (const auto& [name, g] : ArenaGraphs()) {
    graph::DegreeOrderedDag dag(g);
    const core::EdgeDsuArena arena(dag);
    std::vector<test::CliqueFields> expected = test::OracleFields(dag, arena);
    const std::vector<test::CliqueFields> got = test::ArenaFields(dag, arena);
    ASSERT_EQ(got.size(), expected.size()) << name;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << name << " clique " << i;
    }
    util::ThreadPool pool(3);
    EXPECT_EQ(test::ArenaFields(dag, core::EdgeDsuArena(dag, &pool)), got)
        << name;
    std::vector<test::CliqueFields> via_ranges =
        test::ArenaFieldsByRandomRanges(dag, arena, 29);
    std::sort(expected.begin(), expected.end());
    std::sort(via_ranges.begin(), via_ranges.end());
    EXPECT_EQ(via_ranges, expected) << name;
  }
}

// The arena the triangle-slot layout replaced, kept as the oracle for the
// 4-clique stage: one id-sorted slice per edge, and every union finds both
// vertices by binary search (SlotOf), then merges by size.
class SlotOfOracle {
 public:
  explicit SlotOfOracle(const Graph& g) {
    offsets_.push_back(0);
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const std::vector<VertexId> common = MergeCommonNeighbors(g, g.EdgeAt(e));
      members_.insert(members_.end(), common.begin(), common.end());
      offsets_.push_back(members_.size());
    }
    parent_.resize(members_.size());
    std::iota(parent_.begin(), parent_.end(), 0u);
    count_.assign(members_.size(), 1);
  }

  void Union(EdgeId e, VertexId a, VertexId b) {
    uint32_t ra = Find(SlotOf(e, a));
    uint32_t rb = Find(SlotOf(e, b));
    if (ra == rb) return;
    if (count_[ra] < count_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    count_[ra] += count_[rb];
  }

  std::vector<uint32_t> ComponentSizes(EdgeId e) const {
    std::vector<uint32_t> out;
    for (size_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
      if (parent_[s] == s) out.push_back(count_[s]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Every slice as KeyedDsu slots: each is already in member order, and
  // each member's word points at its root, so the export must keep the
  // oracle's roots, not only its partition.
  util::KeyedDsuPool ToKeyedDsuPool() {
    std::vector<util::KeyedDsu::Slot> slots;
    for (size_t e = 0; e + 1 < offsets_.size(); ++e) {
      for (size_t s = offsets_[e]; s < offsets_[e + 1]; ++s) {
        const uint32_t root = Find(static_cast<uint32_t>(s));
        slots.push_back({members_[s],
                         root == s ? util::kDsuRoot | count_[s]
                                   : static_cast<uint32_t>(root - offsets_[e])});
      }
    }
    util::KeyedDsuPool pool;
    pool.Adopt(std::span<const size_t>(offsets_), std::move(slots));
    return pool;
  }

 private:
  uint32_t SlotOf(EdgeId e, VertexId w) const {
    auto lo = members_.begin() + offsets_[e];
    auto hi = members_.begin() + offsets_[e + 1];
    auto it = std::lower_bound(lo, hi, w);
    EXPECT_TRUE(it != hi && *it == w) << "edge " << e << " vertex " << w;
    return static_cast<uint32_t>(it - members_.begin());
  }

  uint32_t Find(uint32_t s) {
    while (parent_[s] != s) {
      parent_[s] = parent_[parent_[s]];
      s = parent_[s];
    }
    return s;
  }

  std::vector<size_t> offsets_;
  std::vector<VertexId> members_;
  std::vector<uint32_t> parent_, count_;
};

// Everything observable about a KeyedDsu: each member's root and
// component size, and the components in storage order.
std::vector<uint32_t> KeyedDump(util::KeyedDsu dsu,
                                std::span<const VertexId> members) {
  std::vector<uint32_t> out;
  for (VertexId w : members) {
    out.push_back(w);
    out.push_back(dsu.Find(w));
    out.push_back(dsu.ComponentSize(w));
  }
  dsu.ForEachComponent([&](uint32_t root, uint32_t size) {
    out.push_back(root);
    out.push_back(size);
  });
  return out;
}

TEST(BuildKernelTest, TriangleSlotSweepMatchesSlotOfOracle) {
  for (const auto& [name, g] : ArenaGraphs()) {
    graph::DegreeOrderedDag dag(g);
    SlotOfOracle oracle(g);
    test::ForEach4Clique(dag, [&](const test::DagFourClique& q) {
      oracle.Union(q.uv, q.w1, q.w2);
      oracle.Union(q.uw1, q.v, q.w2);
      oracle.Union(q.uw2, q.v, q.w1);
      oracle.Union(q.vw1, q.u, q.w2);
      oracle.Union(q.vw2, q.u, q.w1);
      oracle.Union(q.w1w2, q.u, q.v);
    });
    util::KeyedDsuPool exported;
    const core::EdgeSizePool sizes =
        core::CliqueComponentSizes(g, nullptr, &exported);
    ASSERT_EQ(exported.size(), g.NumEdges()) << name;
    util::KeyedDsuPool want = oracle.ToKeyedDsuPool();
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const std::vector<uint32_t> got(
          sizes.values.begin() + sizes.offsets[e],
          sizes.values.begin() + sizes.offsets[e + 1]);
      ASSERT_EQ(got, oracle.ComponentSizes(e)) << name << " edge " << e;
      const std::vector<VertexId> members =
          MergeCommonNeighbors(g, g.EdgeAt(e));
      ASSERT_EQ(KeyedDump(exported[e], members), KeyedDump(want[e], members))
          << name << " edge " << e;
    }
  }
}

// The parent array's root flag leaves 31 bits for slots and sizes; the
// check runs after the count pass, before any slot-sized table exists.
TEST(BuildKernelTest, ArenaRefusesMembershipsBeyondTheSlotWidth) {
  EXPECT_EQ(core::EdgeDsuArena::kMaxSlots, (uint64_t{1} << 31) - 1);
  EXPECT_NO_THROW(core::EdgeDsuArena::CheckSlotCount(0));
  EXPECT_NO_THROW(
      core::EdgeDsuArena::CheckSlotCount(core::EdgeDsuArena::kMaxSlots));
  EXPECT_THROW(
      core::EdgeDsuArena::CheckSlotCount(core::EdgeDsuArena::kMaxSlots + 1),
      std::length_error);
  EXPECT_THROW(core::EdgeDsuArena::CheckSlotCount(uint64_t{1} << 32),
               std::length_error);
}

TEST(BuildKernelTest, FrozenBuildMatchesFreezeOfBfsBuild) {
  for (const auto& [name, g] : test::Zoo()) {
    EXPECT_TRUE(core::BuildFrozenIndex(g) ==
                core::Freeze(core::BuildIndexBasic(g)))
        << name;
  }
}

TEST(BuildKernelTest, ParallelBuildMatchesSerialAtOneToFourThreads) {
  for (const auto& [name, g] : ArenaGraphs()) {
    const FrozenEsdIndex serial = core::BuildFrozenIndex(g);
    for (unsigned threads = 1; threads <= 4; ++threads) {
      util::ThreadPool pool(threads);
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
