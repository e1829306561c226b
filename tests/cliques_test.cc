#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <span>
#include <tuple>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cliques/triangle.h"
#include "core/edge_dsu_arena.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "tests/four_clique_oracle.h"

namespace esd::cliques {
namespace {

using core::EdgeDsuArena;
using core::FourClique;
using graph::Edge;
using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;
using test::CliqueFields;

Graph CompleteGraph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) b.AddEdge(i, j);
  }
  return b.Build();
}

uint64_t Choose(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  uint64_t r = 1;
  for (uint64_t i = 0; i < k; ++i) r = r * (n - i) / (i + 1);
  return r;
}

// Brute-force k-clique count over all vertex subsets (tiny graphs only).
uint64_t BruteKCliques(const Graph& g, int k) {
  std::vector<VertexId> members;
  uint64_t count = 0;
  std::function<void(VertexId)> rec = [&](VertexId start) {
    if (static_cast<int>(members.size()) == k) {
      ++count;
      return;
    }
    for (VertexId v = start; v < g.NumVertices(); ++v) {
      bool ok = true;
      for (VertexId m : members) {
        if (!g.HasEdge(m, v)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        members.push_back(v);
        rec(v + 1);
        members.pop_back();
      }
    }
  };
  rec(0);
  return count;
}

// ---------------------------------------------------------------------------
// Triangles
// ---------------------------------------------------------------------------

TEST(TriangleTest, CountsOnKnownGraphs) {
  EXPECT_EQ(CountTriangles(CompleteGraph(3)), 1u);
  EXPECT_EQ(CountTriangles(CompleteGraph(5)), Choose(5, 3));
  GraphBuilder path(4);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.AddEdge(2, 3);
  EXPECT_EQ(CountTriangles(path.Build()), 0u);
}

TEST(TriangleTest, EdgeIdsConsistent) {
  Graph g = CompleteGraph(5);
  graph::DegreeOrderedDag dag(g);
  ForEachTriangle(dag, [&g](const Triangle& t) {
    EXPECT_EQ(g.EdgeAt(t.uv), graph::MakeEdge(t.u, t.v));
    EXPECT_EQ(g.EdgeAt(t.uw), graph::MakeEdge(t.u, t.w));
    EXPECT_EQ(g.EdgeAt(t.vw), graph::MakeEdge(t.v, t.w));
  });
}

TEST(TriangleTest, EachTriangleOnce) {
  Graph g = gen::ErdosRenyiGnp(25, 0.3, 7);
  graph::DegreeOrderedDag dag(g);
  std::set<std::array<VertexId, 3>> seen;
  ForEachTriangle(dag, [&seen](const Triangle& t) {
    std::array<VertexId, 3> key{t.u, t.v, t.w};
    std::sort(key.begin(), key.end());
    EXPECT_TRUE(seen.insert(key).second) << "duplicate triangle";
  });
  EXPECT_EQ(seen.size(), BruteKCliques(g, 3));
}

TEST(TriangleTest, EdgeSupportMatchesCommonNeighbors) {
  Graph g = gen::ErdosRenyiGnp(30, 0.25, 11);
  std::vector<uint32_t> support = EdgeSupport(g);
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& uv = g.EdgeAt(e);
    EXPECT_EQ(support[e], graph::CountCommonNeighbors(g, uv.u, uv.v));
  }
}

TEST(TriangleTest, ClusteringCoefficientBounds) {
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(CompleteGraph(6)), 1.0);
  GraphBuilder star(5);
  for (VertexId i = 1; i < 5; ++i) star.AddEdge(0, i);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(star.Build()), 0.0);
  double c = GlobalClusteringCoefficient(gen::ErdosRenyiGnp(40, 0.2, 3));
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1.0);
}

// ---------------------------------------------------------------------------
// 4-cliques
// ---------------------------------------------------------------------------

// Number of 4-cliques by the arena enumerator.
uint64_t ArenaCount4Cliques(const Graph& g) {
  graph::DegreeOrderedDag dag(g);
  return test::ArenaFields(dag, EdgeDsuArena(dag)).size();
}

// Member of edge e at absolute slot `slot`.
VertexId MemberAt(const EdgeDsuArena& arena, graph::EdgeId e, uint32_t slot) {
  const uint32_t i = slot - arena.Slot(e, 0);
  EXPECT_LT(i, arena.Members(e).size()) << "edge " << e;
  return i < arena.Members(e).size() ? arena.Members(e)[i] : 0;
}

// The arena enumerator emits the DAG oracle's sequence: all thirteen
// fields, in order, and the same set from random arc ranges. Each named
// triangle's slots hold its opposite vertices in its three edges, and the
// oracle's triangle indices name the right triangles of u's
// ForEachTriangleOfVertex listing.
void ExpectOracleSequence(const Graph& g) {
  graph::DegreeOrderedDag dag(g);
  const EdgeDsuArena arena(dag);
  const std::vector<CliqueFields> expected = test::OracleFields(dag, arena);
  const std::vector<CliqueFields> got = test::ArenaFields(dag, arena);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "clique " << i;
  }
  // The same cliques from random arc ranges in shuffled vertex order.
  std::vector<CliqueFields> sorted = expected;
  std::vector<CliqueFields> via_ranges =
      test::ArenaFieldsByRandomRanges(dag, arena, 23);
  std::sort(sorted.begin(), sorted.end());
  std::sort(via_ranges.begin(), via_ranges.end());
  EXPECT_EQ(via_ranges, sorted);

  EdgeDsuArena::CliqueScratch scratch(dag);
  for (VertexId u = 0; u < dag.NumVertices(); ++u) {
    arena.ForEach4CliqueOfVertex(dag, u, &scratch, [&](const FourClique& q) {
      auto expect_triangle = [&](uint32_t t, graph::EdgeId ab,
                                 graph::EdgeId ac, graph::EdgeId bc,
                                 VertexId a, VertexId b, VertexId c) {
        const EdgeDsuArena::TriangleSlots& s = arena.SlotsOf(t);
        EXPECT_EQ(MemberAt(arena, ab, s.uv), c) << "triangle " << t;
        EXPECT_EQ(MemberAt(arena, ac, s.uw), b) << "triangle " << t;
        EXPECT_EQ(MemberAt(arena, bc, s.vw), a) << "triangle " << t;
        EXPECT_EQ(arena.TriangleEdgeVW(t), bc) << "triangle " << t;
      };
      expect_triangle(q.uvw1, q.uv, q.uw1, q.vw1, q.u, q.v, q.w1);
      expect_triangle(q.uvw2, q.uv, q.uw2, q.vw2, q.u, q.v, q.w2);
      expect_triangle(q.uw1w2, q.uw1, q.uw2, q.w1w2, q.u, q.w1, q.w2);
    });
  }

  TriangleScratch tri_scratch(dag);
  std::vector<std::array<VertexId, 3>> listing;
  VertexId listed = dag.NumVertices();
  test::ForEach4Clique(dag, [&](const test::DagFourClique& q) {
    if (q.u != listed) {
      listed = q.u;
      listing.clear();
      ForEachTriangleOfVertex(dag, q.u, &tri_scratch, [&](const Triangle& t) {
        listing.push_back({t.u, t.v, t.w});
      });
    }
    ASSERT_LT(std::max({q.uvw1, q.uvw2, q.uw1w2}), listing.size());
    using Tri = std::array<VertexId, 3>;
    EXPECT_EQ(listing[q.uvw1], (Tri{q.u, q.v, q.w1}));
    EXPECT_EQ(listing[q.uvw2], (Tri{q.u, q.v, q.w2}));
    EXPECT_EQ(listing[q.uw1w2], (Tri{q.u, q.w1, q.w2}));
  });
}

TEST(FourCliqueTest, CountsOnKnownGraphs) {
  EXPECT_EQ(ArenaCount4Cliques(CompleteGraph(4)), 1u);
  EXPECT_EQ(ArenaCount4Cliques(CompleteGraph(6)), Choose(6, 4));
  EXPECT_EQ(ArenaCount4Cliques(CompleteGraph(3)), 0u);
  // Two K4's sharing a triangle: {0,1,2,3} and {0,1,2,4}.
  GraphBuilder b(5);
  for (VertexId i = 0; i < 3; ++i) {
    for (VertexId j = i + 1; j < 3; ++j) b.AddEdge(i, j);
    b.AddEdge(i, 3);
    b.AddEdge(i, 4);
  }
  EXPECT_EQ(ArenaCount4Cliques(b.Build()), 2u);
}

TEST(FourCliqueTest, AllSixEdgeIdsValid) {
  Graph g = CompleteGraph(6);
  graph::DegreeOrderedDag dag(g);
  const EdgeDsuArena arena(dag);
  EdgeDsuArena::CliqueScratch scratch(dag);
  uint64_t count = 0;
  auto check = [&](const FourClique& q) {
    ++count;
    EXPECT_EQ(g.EdgeAt(q.uv), graph::MakeEdge(q.u, q.v));
    EXPECT_EQ(g.EdgeAt(q.uw1), graph::MakeEdge(q.u, q.w1));
    EXPECT_EQ(g.EdgeAt(q.uw2), graph::MakeEdge(q.u, q.w2));
    EXPECT_EQ(g.EdgeAt(q.vw1), graph::MakeEdge(q.v, q.w1));
    EXPECT_EQ(g.EdgeAt(q.vw2), graph::MakeEdge(q.v, q.w2));
    EXPECT_EQ(g.EdgeAt(q.w1w2), graph::MakeEdge(q.w1, q.w2));
    // All four vertices distinct.
    std::set<VertexId> verts{q.u, q.v, q.w1, q.w2};
    EXPECT_EQ(verts.size(), 4u);
  };
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    arena.ForEach4CliqueOfVertex(dag, u, &scratch, check);
  }
  EXPECT_EQ(count, Choose(6, 4));
}

class FourCliqueRandomTest : public ::testing::TestWithParam<
                                 std::tuple<uint32_t, double, uint64_t>> {};

TEST_P(FourCliqueRandomTest, MatchesBruteForceOnce) {
  auto [n, p, seed] = GetParam();
  Graph g = gen::ErdosRenyiGnp(n, p, seed);
  graph::DegreeOrderedDag dag(g);
  std::set<std::array<VertexId, 4>> seen;
  for (const CliqueFields& q : test::ArenaFields(dag, EdgeDsuArena(dag))) {
    std::array<VertexId, 4> key{q[0], q[1], q[2], q[3]};
    std::sort(key.begin(), key.end());
    EXPECT_TRUE(seen.insert(key).second) << "duplicate 4-clique";
  }
  EXPECT_EQ(seen.size(), BruteKCliques(g, 4));
  EXPECT_EQ(test::Count4Cliques(g), seen.size());
  ExpectOracleSequence(g);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FourCliqueRandomTest,
    ::testing::Values(std::make_tuple(12u, 0.3, 1ull),
                      std::make_tuple(15u, 0.4, 2ull),
                      std::make_tuple(20u, 0.35, 3ull),
                      std::make_tuple(20u, 0.5, 4ull),
                      std::make_tuple(25u, 0.25, 5ull),
                      std::make_tuple(10u, 0.8, 6ull),
                      std::make_tuple(18u, 0.15, 7ull),
                      std::make_tuple(30u, 0.2, 8ull)));

TEST(FourCliqueTest, EmitsPerArcMergeSequenceOnDenseCliques) {
  // In K_30 the first vertex's out-degree is 29 and its local DAG is
  // complete.
  ExpectOracleSequence(CompleteGraph(8));
  ExpectOracleSequence(CompleteGraph(30));
  EXPECT_EQ(ArenaCount4Cliques(CompleteGraph(30)), Choose(30, 4));
}

TEST(FourCliqueTest, EmitsPerArcMergeSequenceOnHubCliqueSocialGraph) {
  // The pokec-s recipe: Holme–Kim plus a clique of 15 celebrity hubs.
  Graph g = gen::LoadStandardDataset("pokec-s", 0.05).graph;
  ASSERT_GT(ArenaCount4Cliques(g), 0u);
  ExpectOracleSequence(g);
}

TEST(FourCliqueTest, EmitsPerArcMergeSequenceWithIsolatedAndLeafVertices) {
  // Two K5s sharing an edge, a pendant path and isolated vertices.
  GraphBuilder b(16);
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = i + 1; j < 5; ++j) b.AddEdge(i, j);
  }
  for (VertexId i : {0u, 1u, 5u, 6u, 7u}) {
    for (VertexId j : {0u, 1u, 5u, 6u, 7u}) {
      if (i < j && !(i == 0 && j == 1)) b.AddEdge(i, j);
    }
  }
  b.AddEdge(7, 8);
  b.AddEdge(8, 9);
  b.AddEdge(2, 10);
  Graph g = b.Build();
  EXPECT_EQ(ArenaCount4Cliques(g), 2 * Choose(5, 4));
  ExpectOracleSequence(g);
  ExpectOracleSequence(Graph::FromEdges(4, {}));
  ExpectOracleSequence(Graph());
}

TEST(FourCliqueTest, ArcVariantAggregatesToFull) {
  Graph g = gen::ErdosRenyiGnp(40, 0.4, 17);
  graph::DegreeOrderedDag dag(g);
  const EdgeDsuArena arena(dag);
  std::vector<CliqueFields> full = test::OracleFields(dag, arena);
  ASSERT_FALSE(full.empty());
  std::vector<CliqueFields> via_ranges =
      test::ArenaFieldsByRandomRanges(dag, arena, 23);
  std::sort(full.begin(), full.end());
  std::sort(via_ranges.begin(), via_ranges.end());
  EXPECT_EQ(via_ranges, full);
}

// ---------------------------------------------------------------------------
// k-cliques
// ---------------------------------------------------------------------------

// k-clique lister, the oracle for the 4-clique counts: recurses over the
// degree-ordered DAG, intersecting out-neighborhoods. For k == 1 it lists
// vertices, for k == 2 edges; the span passed to `fn` is only valid during
// the call.
void ForEachKClique(const Graph& g, int k,
                    const std::function<void(std::span<const VertexId>)>& fn) {
  if (k < 1) return;
  graph::DegreeOrderedDag dag(g);
  std::vector<VertexId> clique;
  // clique holds the members so far; `cands` extend it, all ranked above
  // every member.
  std::function<void(const std::vector<VertexId>&)> extend =
      [&](const std::vector<VertexId>& cands) {
        if (static_cast<int>(clique.size()) == k - 1) {
          for (VertexId w : cands) {
            clique.push_back(w);
            fn(clique);
            clique.pop_back();
          }
          return;
        }
        for (VertexId w : cands) {
          auto out = dag.OutNeighbors(w);
          std::vector<VertexId> next;
          std::set_intersection(cands.begin(), cands.end(), out.begin(),
                                out.end(), std::back_inserter(next));
          if (next.empty()) continue;
          clique.push_back(w);
          extend(next);
          clique.pop_back();
        }
      };
  for (VertexId u = 0; u < dag.NumVertices(); ++u) {
    clique.assign(1, u);
    if (k == 1) {
      fn(clique);
      continue;
    }
    auto out = dag.OutNeighbors(u);
    extend(std::vector<VertexId>(out.begin(), out.end()));
  }
}

uint64_t CountKCliques(const Graph& g, int k) {
  uint64_t count = 0;
  ForEachKClique(g, k, [&count](std::span<const VertexId>) { ++count; });
  return count;
}

TEST(KCliqueTest, DegenerateCases) {
  Graph g = CompleteGraph(5);
  EXPECT_EQ(CountKCliques(g, 1), 5u);
  EXPECT_EQ(CountKCliques(g, 2), 10u);
  EXPECT_EQ(CountKCliques(g, 5), 1u);
  EXPECT_EQ(CountKCliques(g, 6), 0u);
  EXPECT_EQ(CountKCliques(g, 0), 0u);
  EXPECT_EQ(CountKCliques(Graph(), 3), 0u);
}

class KCliqueRandomTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(KCliqueRandomTest, MatchesBruteForce) {
  auto [k, seed] = GetParam();
  Graph g = gen::ErdosRenyiGnp(16, 0.5, seed);
  EXPECT_EQ(CountKCliques(g, k), BruteKCliques(g, k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KCliqueRandomTest,
    ::testing::Combine(::testing::Values(3, 4, 5, 6),
                       ::testing::Values(21ull, 22ull, 23ull)));

TEST(KCliqueTest, MembersFormActualCliques) {
  Graph g = gen::ErdosRenyiGnp(18, 0.5, 31);
  ForEachKClique(g, 4, [&g](std::span<const VertexId> clique) {
    ASSERT_EQ(clique.size(), 4u);
    for (size_t i = 0; i < clique.size(); ++i) {
      for (size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(g.HasEdge(clique[i], clique[j]));
      }
    }
  });
}

TEST(KCliqueTest, FourCliqueAgreesWithKClique) {
  for (uint64_t seed : {41ull, 42ull, 43ull}) {
    Graph g = gen::ErdosRenyiGnp(24, 0.3, seed);
    EXPECT_EQ(ArenaCount4Cliques(g), CountKCliques(g, 4));
  }
}

}  // namespace
}  // namespace esd::cliques
