#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/connectivity.h"
#include "graph/core_decomposition.h"
#include "graph/dynamic_graph.h"
#include "graph/ego_net.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/orientation.h"
#include "graph/sampling.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace esd::graph {
namespace {

Graph PathGraph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return b.Build();
}

Graph CompleteGraph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) b.AddEdge(i, j);
  }
  return b.Build();
}

Graph StarGraph(VertexId leaves) {
  GraphBuilder b(leaves + 1);
  for (VertexId i = 1; i <= leaves; ++i) b.AddEdge(0, i);
  return b.Build();
}

// ---------------------------------------------------------------------------
// Graph / GraphBuilder
// ---------------------------------------------------------------------------

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(GraphTest, FromEdgesDropsSelfLoopsAndDuplicates) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 0}, {2, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, NeighborsSortedWithParallelEdgeIds) {
  Graph g = Graph::FromEdges(5, {{3, 1}, {1, 0}, {1, 4}, {2, 1}});
  auto nbrs = g.Neighbors(1);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  auto eids = g.IncidentEdges(1);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    const Edge& e = g.EdgeAt(eids[i]);
    EXPECT_EQ(MakeEdge(1, nbrs[i]), e);
  }
}

TEST(GraphTest, FindEdgeAndIds) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& uv = g.EdgeAt(e);
    EXPECT_EQ(g.FindEdge(uv.u, uv.v), e);
    EXPECT_EQ(g.FindEdge(uv.v, uv.u), e);
  }
  EXPECT_EQ(g.FindEdge(0, 3), kNoEdge);
  EXPECT_EQ(g.FindEdge(0, 0), kNoEdge);
  EXPECT_EQ(g.FindEdge(0, 99), kNoEdge);
}

TEST(GraphTest, DegreesAndMaxDegree) {
  Graph g = StarGraph(6);
  EXPECT_EQ(g.Degree(0), 6u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.MaxDegree(), 6u);
  const Edge& uv = g.EdgeAt(0);
  EXPECT_EQ(std::min(g.Degree(uv.u), g.Degree(uv.v)), 1u);
}

TEST(GraphTest, EdgesSortedLexicographically) {
  util::Rng rng(3);
  std::vector<Edge> edges;
  for (int i = 0; i < 200; ++i) {
    auto a = static_cast<VertexId>(rng.NextBounded(50));
    auto b = static_cast<VertexId>(rng.NextBounded(50));
    edges.push_back(MakeEdge(a, b));
  }
  Graph g = Graph::FromEdges(50, edges);
  EXPECT_TRUE(std::is_sorted(g.Edges().begin(), g.Edges().end()));
}

TEST(GraphTest, CommonNeighborsCorrect) {
  // 0-1 share neighbors 2,3; 2 and 3 also adjacent.
  Graph g = Graph::FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3},
                                 {2, 3}, {0, 4}});
  std::vector<VertexId> cn = CommonNeighbors(g, 0, 1);
  EXPECT_EQ(cn, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(CountCommonNeighbors(g, 0, 1), 2u);
  EXPECT_EQ(CountCommonNeighbors(g, 0, 4), 0u);
}

TEST(GraphTest, CommonNeighborsMatchBruteForce) {
  util::Rng rng(9);
  Graph g = Graph::FromEdges(30, [&] {
    std::vector<Edge> es;
    for (int i = 0; i < 150; ++i) {
      es.push_back(MakeEdge(static_cast<VertexId>(rng.NextBounded(30)),
                            static_cast<VertexId>(rng.NextBounded(30))));
    }
    return es;
  }());
  for (const Edge& e : g.Edges()) {
    std::vector<VertexId> brute;
    for (VertexId w = 0; w < g.NumVertices(); ++w) {
      if (g.HasEdge(e.u, w) && g.HasEdge(e.v, w)) brute.push_back(w);
    }
    EXPECT_EQ(CommonNeighbors(g, e.u, e.v), brute);
  }
}

TEST(GraphBuilderTest, AutoVertexCount) {
  GraphBuilder b;
  b.AddEdge(3, 7);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 8u);
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(GraphBuilderTest, FixedVertexCountKeepsIsolated) {
  GraphBuilder b(10);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.Degree(9), 0u);
}

// ---------------------------------------------------------------------------
// DegreeOrderedDag
// ---------------------------------------------------------------------------

TEST(DagTest, OrderRespectsDegreeThenId) {
  // Degrees: 0->1, 1->2, 2->3, 3->2 on a path 0-1-2-3 plus edge 2-... use
  // explicit graph: star center has max degree.
  Graph g = StarGraph(4);
  DegreeOrderedDag dag(g);
  for (VertexId leaf = 1; leaf <= 4; ++leaf) {
    EXPECT_TRUE(dag.Less(leaf, 0));  // leaves precede the hub
  }
  EXPECT_TRUE(dag.Less(1, 2));  // tie broken by id
}

TEST(DagTest, EveryEdgeOrientedLowToHigh) {
  util::Rng rng(21);
  std::vector<Edge> edges;
  for (int i = 0; i < 300; ++i) {
    edges.push_back(MakeEdge(static_cast<VertexId>(rng.NextBounded(60)),
                             static_cast<VertexId>(rng.NextBounded(60))));
  }
  Graph g = Graph::FromEdges(60, edges);
  DegreeOrderedDag dag(g);
  uint64_t arcs = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    auto out = dag.OutNeighbors(u);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    auto eids = dag.OutEdges(u);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE(dag.Less(u, out[i]));
      EXPECT_EQ(g.EdgeAt(eids[i]), MakeEdge(u, out[i]));
      ++arcs;
    }
  }
  EXPECT_EQ(arcs, g.NumEdges());
}

TEST(DagTest, RanksAreAPermutation) {
  Graph g = PathGraph(20);
  DegreeOrderedDag dag(g);
  std::set<uint32_t> ranks;
  for (VertexId v = 0; v < 20; ++v) ranks.insert(dag.Rank(v));
  EXPECT_EQ(ranks.size(), 20u);
  EXPECT_EQ(*ranks.rbegin(), 19u);
}

TEST(DagTest, MaxOutDegreeSmallOnClique) {
  // In a complete graph the degree ordering gives out-degrees n-1, n-2, ...
  Graph g = CompleteGraph(6);
  DegreeOrderedDag dag(g);
  EXPECT_EQ(dag.MaxOutDegree(), 5u);
  uint32_t total = 0;
  for (VertexId v = 0; v < 6; ++v) total += dag.OutDegree(v);
  EXPECT_EQ(total, g.NumEdges());
}

// The comparator-sorted construction the counting sort replaced: ranks
// from std::sort on (degree, id), each out-list sorted by (id, edge id).
void ExpectMatchesSortedReference(const Graph& g) {
  const VertexId n = g.NumVertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](VertexId a, VertexId b) {
    if (g.Degree(a) != g.Degree(b)) return g.Degree(a) < g.Degree(b);
    return a < b;
  });
  std::vector<uint32_t> rank(n);
  for (uint32_t i = 0; i < n; ++i) rank[order[i]] = i;
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> out(n);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& uv = g.EdgeAt(e);
    if (rank[uv.u] < rank[uv.v]) {
      out[uv.u].emplace_back(uv.v, e);
    } else {
      out[uv.v].emplace_back(uv.u, e);
    }
  }
  DegreeOrderedDag dag(g);
  ASSERT_EQ(dag.NumVertices(), n);
  ASSERT_EQ(dag.NumEdges(), g.NumEdges());
  uint32_t max_out = 0;
  for (VertexId u = 0; u < n; ++u) {
    EXPECT_EQ(dag.Rank(u), rank[u]) << "vertex " << u;
    std::sort(out[u].begin(), out[u].end());
    max_out = std::max<uint32_t>(max_out, out[u].size());
    std::vector<std::pair<VertexId, EdgeId>> got;
    auto nu = dag.OutNeighbors(u);
    auto eu = dag.OutEdges(u);
    for (size_t i = 0; i < nu.size(); ++i) got.emplace_back(nu[i], eu[i]);
    EXPECT_EQ(got, out[u]) << "vertex " << u;
    EXPECT_EQ(dag.ArcOffsets()[u + 1] - dag.ArcOffsets()[u], out[u].size());
  }
  EXPECT_EQ(dag.MaxOutDegree(), max_out);
}

TEST(DagTest, CountingSortMatchesSortedReferenceOnRandomGraphs) {
  for (auto [n, p, seed] : {std::make_tuple(12u, 0.3, 1ull),
                            std::make_tuple(25u, 0.25, 5ull),
                            std::make_tuple(30u, 0.2, 8ull),
                            std::make_tuple(300u, 0.05, 9ull)}) {
    SCOPED_TRACE(seed);
    ExpectMatchesSortedReference(gen::ErdosRenyiGnp(n, p, seed));
  }
}

TEST(DagTest, CountingSortMatchesSortedReferenceOnTiedDegrees) {
  // A 12-cycle (all degree 2), two K4s (all degree 3), a star and isolated
  // vertices: most ranks are decided by the id tie-break.
  GraphBuilder b(30);
  for (VertexId i = 0; i < 12; ++i) b.AddEdge(i, (i + 1) % 12);
  for (VertexId base : {12u, 16u}) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) b.AddEdge(base + i, base + j);
    }
  }
  for (VertexId leaf = 21; leaf < 25; ++leaf) b.AddEdge(20, leaf);
  ExpectMatchesSortedReference(b.Build());
  ExpectMatchesSortedReference(CompleteGraph(7));
  ExpectMatchesSortedReference(Graph());
}

// ---------------------------------------------------------------------------
// Connectivity
// ---------------------------------------------------------------------------

TEST(ConnectivityTest, WholeGraphComponents) {
  Graph g = Graph::FromEdges(7, {{0, 1}, {1, 2}, {3, 4}});
  Components c = ConnectedComponents(g);
  EXPECT_EQ(c.NumComponents(), 4u);  // {0,1,2}, {3,4}, {5}, {6}
  std::multiset<uint32_t> sizes(c.size.begin(), c.size.end());
  EXPECT_EQ(sizes, (std::multiset<uint32_t>{1, 1, 2, 3}));
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_NE(c.label[0], c.label[3]);
}

TEST(ConnectivityTest, IsConnected) {
  EXPECT_TRUE(IsConnected(PathGraph(10)));
  EXPECT_TRUE(IsConnected(Graph()));
  EXPECT_TRUE(IsConnected(Graph::FromEdges(1, {})));
  EXPECT_FALSE(IsConnected(Graph::FromEdges(3, {{0, 1}})));
}

// Sorted component sizes of G[subset] through the ego-net kernel; both
// probe policies must agree label for label.
std::vector<uint32_t> InducedSizes(const Graph& g,
                                   const std::vector<VertexId>& subset) {
  EgoScratch scan, shorter;
  scan.Build(g, subset, EgoProbe::kScanNeighbors);
  shorter.Build(g, subset, EgoProbe::kShorterSide);
  std::vector<uint32_t> sizes(scan.ComponentSizes().begin(),
                              scan.ComponentSizes().end());
  EXPECT_TRUE(std::ranges::equal(sizes, shorter.ComponentSizes()));
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

TEST(ConnectivityTest, InducedComponentSizesBasic) {
  // Path 0-1-2-3-4; subset {0,1,3,4} splits into {0,1} and {3,4}.
  Graph g = PathGraph(5);
  EXPECT_EQ(InducedSizes(g, {0, 1, 3, 4}), (std::vector<uint32_t>{2, 2}));
}

TEST(ConnectivityTest, InducedComponentSizesEmptyAndSingleton) {
  Graph g = PathGraph(5);
  EXPECT_TRUE(InducedSizes(g, {}).empty());
  EXPECT_EQ(InducedSizes(g, {2}), (std::vector<uint32_t>{1}));
}

TEST(ConnectivityTest, InducedMatchesBruteForceOnRandomSubsets) {
  util::Rng rng(31);
  std::vector<Edge> edges;
  for (int i = 0; i < 200; ++i) {
    edges.push_back(MakeEdge(static_cast<VertexId>(rng.NextBounded(40)),
                             static_cast<VertexId>(rng.NextBounded(40))));
  }
  Graph g = Graph::FromEdges(40, edges);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<VertexId> subset;
    for (VertexId v = 0; v < 40; ++v) {
      if (rng.NextBool(0.3)) subset.push_back(v);
    }
    // Brute force: label propagation on the induced subgraph.
    std::vector<Edge> sub_edges;
    util::FlatMap<VertexId, VertexId> local;
    for (VertexId i = 0; i < subset.size(); ++i) local.Insert(subset[i], i);
    for (const Edge& e : g.Edges()) {
      auto* a = local.Find(e.u);
      auto* b = local.Find(e.v);
      if (a != nullptr && b != nullptr) sub_edges.push_back(Edge{*a, *b});
    }
    Graph sub = Graph::FromEdges(static_cast<VertexId>(subset.size()),
                                 std::move(sub_edges));
    Components ref = ConnectedComponents(sub);
    std::vector<uint32_t> want(ref.size.begin(), ref.size.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(InducedSizes(g, subset), want);
  }
}

// ---------------------------------------------------------------------------
// Core decomposition
// ---------------------------------------------------------------------------

TEST(CoreTest, PathHasDegeneracyOne) {
  CoreDecomposition d = ComputeCores(PathGraph(10));
  EXPECT_EQ(d.degeneracy, 1u);
  for (uint32_t c : d.core) EXPECT_LE(c, 1u);
}

TEST(CoreTest, CliqueHasDegeneracyNMinusOne) {
  CoreDecomposition d = ComputeCores(CompleteGraph(7));
  EXPECT_EQ(d.degeneracy, 6u);
  for (uint32_t c : d.core) EXPECT_EQ(c, 6u);
}

TEST(CoreTest, CliquePlusTailCoreNumbers) {
  // Triangle {0,1,2} plus pendant path 2-3-4.
  Graph g = Graph::FromEdges(5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}});
  CoreDecomposition d = ComputeCores(g);
  EXPECT_EQ(d.degeneracy, 2u);
  EXPECT_EQ(d.core[0], 2u);
  EXPECT_EQ(d.core[1], 2u);
  EXPECT_EQ(d.core[2], 2u);
  EXPECT_EQ(d.core[3], 1u);
  EXPECT_EQ(d.core[4], 1u);
}

TEST(CoreTest, DegeneracyOrderProperty) {
  // In a degeneracy ordering, each vertex has at most δ neighbors that come
  // later.
  util::Rng rng(41);
  std::vector<Edge> edges;
  for (int i = 0; i < 400; ++i) {
    edges.push_back(MakeEdge(static_cast<VertexId>(rng.NextBounded(80)),
                             static_cast<VertexId>(rng.NextBounded(80))));
  }
  Graph g = Graph::FromEdges(80, edges);
  CoreDecomposition d = ComputeCores(g);
  std::vector<uint32_t> pos(g.NumVertices());
  for (uint32_t i = 0; i < d.order.size(); ++i) pos[d.order[i]] = i;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    uint32_t later = 0;
    for (VertexId w : g.Neighbors(v)) later += pos[w] > pos[v];
    EXPECT_LE(later, d.degeneracy);
  }
}

TEST(CoreTest, ArboricityBounds) {
  Graph g = CompleteGraph(6);  // arboricity of K6 is 3
  uint32_t lower = ArboricityLowerBound(g);
  uint32_t upper = ComputeCores(g).degeneracy;  // δ >= α
  EXPECT_LE(lower, 3u);
  EXPECT_GE(upper, 3u);
  EXPECT_EQ(lower, 3u);  // ceil(15/5)
}

// ---------------------------------------------------------------------------
// DynamicGraph
// ---------------------------------------------------------------------------

TEST(DynamicGraphTest, InsertEraseBasics) {
  DynamicGraph g(5);
  EXPECT_TRUE(g.InsertEdge(0, 1));
  EXPECT_FALSE(g.InsertEdge(1, 0));  // duplicate
  EXPECT_FALSE(g.InsertEdge(2, 2));  // self loop
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.EraseEdge(0, 1));
  EXPECT_FALSE(g.EraseEdge(0, 1));
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(DynamicGraphTest, FromStaticAndSnapshotRoundTrip) {
  util::Rng rng(51);
  std::vector<Edge> edges;
  for (int i = 0; i < 100; ++i) {
    edges.push_back(MakeEdge(static_cast<VertexId>(rng.NextBounded(25)),
                             static_cast<VertexId>(rng.NextBounded(25))));
  }
  Graph g = Graph::FromEdges(25, edges);
  DynamicGraph d(g);
  EXPECT_EQ(d.NumEdges(), g.NumEdges());
  Graph snap = d.Snapshot();
  EXPECT_EQ(snap.Edges(), g.Edges());
  // The copy keeps the Graph's edge ids beside the neighbours, and the
  // snapshot's one linear pass lays out the same sorted adjacency.
  for (VertexId u = 0; u < 25; ++u) {
    auto want = g.Neighbors(u);
    auto want_ids = g.IncidentEdges(u);
    EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
    for (const auto& got : {d.Neighbors(u), snap.Neighbors(u)}) {
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
    }
    for (const auto& got : {d.IncidentEdges(u), snap.IncidentEdges(u)}) {
      EXPECT_TRUE(
          std::equal(got.begin(), got.end(), want_ids.begin(), want_ids.end()));
    }
  }
}

TEST(DynamicGraphTest, CommonNeighborsMatchesStatic) {
  util::Rng rng(53);
  std::vector<Edge> edges;
  for (int i = 0; i < 200; ++i) {
    edges.push_back(MakeEdge(static_cast<VertexId>(rng.NextBounded(30)),
                             static_cast<VertexId>(rng.NextBounded(30))));
  }
  Graph g = Graph::FromEdges(30, edges);
  DynamicGraph d(g);
  for (const Edge& e : g.Edges()) {
    EXPECT_EQ(d.CommonNeighbors(e.u, e.v), CommonNeighbors(g, e.u, e.v));
  }
}

TEST(DynamicGraphTest, NeighborsStaySorted) {
  util::Rng rng(57);
  DynamicGraph g(20);
  // Each edge's id names its endpoints, so the ids beside the neighbours
  // can be checked against them.
  auto id_of = [](VertexId a, VertexId b) {
    const Edge e = MakeEdge(a, b);
    return e.u * 20 + e.v;
  };
  for (int i = 0; i < 300; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(20));
    VertexId b = static_cast<VertexId>(rng.NextBounded(20));
    if (rng.NextBool(0.3)) {
      g.EraseEdge(a, b);
      EXPECT_EQ(g.FindEdge(a, b), kNoEdge);
    } else if (a != b) {
      g.InsertEdge(a, b, id_of(a, b));
      EXPECT_EQ(g.FindEdge(b, a), id_of(a, b));
    }
    auto nbrs = g.Neighbors(a);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    auto ids = g.IncidentEdges(a);
    ASSERT_EQ(ids.size(), nbrs.size());
    for (size_t k = 0; k < nbrs.size(); ++k) {
      EXPECT_EQ(ids[k], id_of(a, nbrs[k]));
    }
  }
}

// ---------------------------------------------------------------------------
// IO
// ---------------------------------------------------------------------------

TEST(IoTest, ParseEdgeListWithCommentsAndRemap) {
  Graph g;
  std::string error;
  ASSERT_TRUE(ParseEdgeList("# comment\n% other comment\n10 20\n20 30\n", &g,
                            &error))
      << error;
  EXPECT_EQ(g.NumVertices(), 3u);  // 10,20,30 remapped to 0,1,2
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(IoTest, ParseRejectsMalformed) {
  Graph g;
  std::string error;
  EXPECT_FALSE(ParseEdgeList("1 2\nbogus\n", &g, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(IoTest, SaveLoadRoundTrip) {
  util::Rng rng(61);
  std::vector<Edge> edges;
  for (int i = 0; i < 120; ++i) {
    edges.push_back(MakeEdge(static_cast<VertexId>(rng.NextBounded(40)),
                             static_cast<VertexId>(rng.NextBounded(40))));
  }
  Graph g = Graph::FromEdges(40, edges);
  std::string path =
      (std::filesystem::temp_directory_path() / "esd_io_test.txt").string();
  std::string error;
  ASSERT_TRUE(SaveEdgeList(g, path, &error)) << error;
  Graph g2;
  ASSERT_TRUE(LoadEdgeList(path, &g2, &error)) << error;
  // Vertex ids may be remapped by first appearance but counts must match,
  // and re-saving must produce an isomorphic edge multiset size.
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  std::remove(path.c_str());
}

TEST(IoTest, LoadMissingFileFails) {
  Graph g;
  std::string error;
  EXPECT_FALSE(LoadEdgeList("/nonexistent/definitely_missing", &g, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

TEST(SamplingTest, EdgeSampleFractionRoughlyRespected) {
  Graph g = CompleteGraph(60);  // 1770 edges
  Graph s = SampleEdges(g, 0.5, 7);
  EXPECT_NEAR(static_cast<double>(s.NumEdges()), 885.0, 120.0);
  EXPECT_EQ(s.NumVertices(), g.NumVertices());
}

TEST(SamplingTest, EdgeSampleExtremes) {
  Graph g = CompleteGraph(10);
  EXPECT_EQ(SampleEdges(g, 0.0, 1).NumEdges(), 0u);
  EXPECT_EQ(SampleEdges(g, 1.0, 1).NumEdges(), g.NumEdges());
}

TEST(SamplingTest, EdgeSampleIsSubset) {
  Graph g = CompleteGraph(20);
  Graph s = SampleEdges(g, 0.3, 11);
  for (const Edge& e : s.Edges()) EXPECT_TRUE(g.HasEdge(e.u, e.v));
}

TEST(SamplingTest, VertexSampleSizeExact) {
  Graph g = CompleteGraph(50);
  Graph s = SampleVertices(g, 0.4, 13);
  EXPECT_EQ(s.NumVertices(), 20u);
  // Induced subgraph of a clique is a clique.
  EXPECT_EQ(s.NumEdges(), 20u * 19 / 2);
}

TEST(SamplingTest, DeterministicBySeed) {
  Graph g = CompleteGraph(30);
  Graph a = SampleEdges(g, 0.5, 99);
  Graph b = SampleEdges(g, 0.5, 99);
  EXPECT_EQ(a.Edges(), b.Edges());
}

}  // namespace
}  // namespace esd::graph
