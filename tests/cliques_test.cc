#include <algorithm>
#include <array>
#include <functional>
#include <numeric>
#include <tuple>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cliques/four_clique.h"
#include "cliques/kclique.h"
#include "cliques/triangle.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "util/rng.h"

namespace esd::cliques {
namespace {

using graph::Edge;
using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

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

// The per-arc merge enumerator the kernel replaced, kept as the oracle for
// its emission sequence: for each arc (u, v) in id order of u, then of v,
// W = N+(u) ∩ N+(v) by merge, then each w1 of W merged against N+(w1).
std::vector<FourClique> PerArcMergeOracle(const graph::DegreeOrderedDag& dag) {
  struct CommonOut {
    VertexId w;
    graph::EdgeId uw, vw;
  };
  std::vector<FourClique> out;
  std::vector<CommonOut> common;
  for (VertexId u = 0; u < dag.NumVertices(); ++u) {
    auto nu = dag.OutNeighbors(u);
    auto eu = dag.OutEdges(u);
    for (size_t vi = 0; vi < nu.size(); ++vi) {
      auto nv = dag.OutNeighbors(nu[vi]);
      auto ev = dag.OutEdges(nu[vi]);
      common.clear();
      for (size_t i = 0, j = 0; i < nu.size() && j < nv.size();) {
        if (nu[i] < nv[j]) {
          ++i;
        } else if (nu[i] > nv[j]) {
          ++j;
        } else {
          common.push_back({nu[i], eu[i], ev[j]});
          ++i;
          ++j;
        }
      }
      for (const CommonOut& c1 : common) {
        auto nw = dag.OutNeighbors(c1.w);
        auto ew = dag.OutEdges(c1.w);
        for (size_t p = 0, q = 0; p < nw.size() && q < common.size();) {
          if (nw[p] < common[q].w) {
            ++p;
          } else if (nw[p] > common[q].w) {
            ++q;
          } else {
            const CommonOut& c2 = common[q];
            out.push_back(FourClique{u, nu[vi], c1.w, c2.w, eu[vi], c1.uw,
                                     c2.uw, c1.vw, c2.vw, ew[p], 0, 0, 0});
            ++p;
            ++q;
          }
        }
      }
    }
  }
  return out;
}

std::array<uint32_t, 10> Fields(const FourClique& q) {
  return {q.u, q.v, q.w1, q.w2, q.uv, q.uw1, q.uw2, q.vw1, q.vw2, q.w1w2};
}

// ForEach4Clique emits the oracle's sequence: all ten fields, in order.
// Its three triangle indices name (u, v, w1), (u, v, w2) and (u, w1, w2) in
// u's ForEachTriangleOfVertex listing.
void ExpectOracleSequence(const Graph& g) {
  graph::DegreeOrderedDag dag(g);
  std::vector<FourClique> expected = PerArcMergeOracle(dag);
  TriangleScratch scratch(dag);
  std::vector<std::array<VertexId, 3>> listing;
  VertexId listed = dag.NumVertices();
  size_t i = 0;
  ForEach4Clique(dag, [&](const FourClique& q) {
    ASSERT_LT(i, expected.size()) << "extra clique";
    EXPECT_EQ(Fields(q), Fields(expected[i])) << "clique " << i;
    ++i;
    if (q.u != listed) {
      listed = q.u;
      listing.clear();
      ForEachTriangleOfVertex(dag, q.u, &scratch, [&](const Triangle& t) {
        listing.push_back({t.u, t.v, t.w});
      });
    }
    ASSERT_LT(std::max({q.uvw1, q.uvw2, q.uw1w2}), listing.size());
    using Tri = std::array<VertexId, 3>;
    EXPECT_EQ(listing[q.uvw1], (Tri{q.u, q.v, q.w1})) << "clique " << i;
    EXPECT_EQ(listing[q.uvw2], (Tri{q.u, q.v, q.w2})) << "clique " << i;
    EXPECT_EQ(listing[q.uw1w2], (Tri{q.u, q.w1, q.w2})) << "clique " << i;
  });
  EXPECT_EQ(i, expected.size());
}

TEST(FourCliqueTest, CountsOnKnownGraphs) {
  EXPECT_EQ(Count4Cliques(CompleteGraph(4)), 1u);
  EXPECT_EQ(Count4Cliques(CompleteGraph(6)), Choose(6, 4));
  EXPECT_EQ(Count4Cliques(CompleteGraph(3)), 0u);
  // Two K4's sharing a triangle: {0,1,2,3} and {0,1,2,4}.
  GraphBuilder b(5);
  for (VertexId i = 0; i < 3; ++i) {
    for (VertexId j = i + 1; j < 3; ++j) b.AddEdge(i, j);
    b.AddEdge(i, 3);
    b.AddEdge(i, 4);
  }
  EXPECT_EQ(Count4Cliques(b.Build()), 2u);
}

TEST(FourCliqueTest, AllSixEdgeIdsValid) {
  Graph g = CompleteGraph(6);
  graph::DegreeOrderedDag dag(g);
  uint64_t count = 0;
  ForEach4Clique(dag, [&](const FourClique& q) {
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
  });
  EXPECT_EQ(count, Choose(6, 4));
}

class FourCliqueRandomTest : public ::testing::TestWithParam<
                                 std::tuple<uint32_t, double, uint64_t>> {};

TEST_P(FourCliqueRandomTest, MatchesBruteForceOnce) {
  auto [n, p, seed] = GetParam();
  Graph g = gen::ErdosRenyiGnp(n, p, seed);
  graph::DegreeOrderedDag dag(g);
  std::set<std::array<VertexId, 4>> seen;
  ForEach4Clique(dag, [&seen](const FourClique& q) {
    std::array<VertexId, 4> key{q.u, q.v, q.w1, q.w2};
    std::sort(key.begin(), key.end());
    EXPECT_TRUE(seen.insert(key).second) << "duplicate 4-clique";
  });
  EXPECT_EQ(seen.size(), BruteKCliques(g, 4));
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
  EXPECT_EQ(Count4Cliques(CompleteGraph(30)), Choose(30, 4));
}

TEST(FourCliqueTest, EmitsPerArcMergeSequenceOnHubCliqueSocialGraph) {
  // The pokec-s recipe: Holme–Kim plus a clique of 15 celebrity hubs.
  Graph g = gen::LoadStandardDataset("pokec-s", 0.05).graph;
  ASSERT_GT(Count4Cliques(g), 0u);
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
  EXPECT_EQ(Count4Cliques(g), 2 * Choose(5, 4));
  ExpectOracleSequence(g);
  ExpectOracleSequence(Graph::FromEdges(4, {}));
  ExpectOracleSequence(Graph());
}

TEST(FourCliqueTest, ArcVariantAggregatesToFull) {
  Graph g = gen::ErdosRenyiGnp(40, 0.4, 17);
  graph::DegreeOrderedDag dag(g);
  std::vector<std::array<uint32_t, 10>> full;
  ForEach4Clique(dag, [&full](const FourClique& q) {
    full.push_back(Fields(q));
  });
  ASSERT_FALSE(full.empty());

  // Each vertex's arcs split into ranges at random cuts, vertices visited
  // in shuffled order, one scratch reused throughout.
  util::Rng rng(23);
  std::vector<VertexId> order(g.NumVertices());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::vector<std::array<uint32_t, 10>> via_ranges;
  FourCliqueScratch scratch(dag);
  auto collect = [&via_ranges](const FourClique& q) {
    via_ranges.push_back(Fields(q));
  };
  for (VertexId u : order) {
    const uint32_t d = dag.OutDegree(u);
    uint32_t lo = 0;
    while (lo < d) {
      const uint32_t hi = lo + 1 + static_cast<uint32_t>(rng.NextBounded(4));
      // The last range runs past the out-degree, which is clamped.
      ForEach4CliqueOfVertex(dag, u, &scratch, collect, ArcRange{lo, hi});
      lo = hi;
    }
  }
  std::sort(full.begin(), full.end());
  std::sort(via_ranges.begin(), via_ranges.end());
  EXPECT_EQ(via_ranges, full);
}

// ---------------------------------------------------------------------------
// k-cliques
// ---------------------------------------------------------------------------

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
    EXPECT_EQ(Count4Cliques(g), CountKCliques(g, 4));
  }
}

}  // namespace
}  // namespace esd::cliques
