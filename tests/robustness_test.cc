// Adversarial and stress coverage of the substrates: degenerate inputs,
// pathological orderings, churn-heavy workloads, determinism across runs.

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/barabasi_albert.h"
#include "gen/collaboration.h"
#include "gen/holme_kim.h"
#include "gen/watts_strogatz.h"
#include "gen/word_association.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/orientation.h"
#include "util/binary_heap.h"
#include "util/dsu.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/treap.h"

namespace esd {
namespace {

using graph::Edge;
using graph::Graph;
using graph::VertexId;

// ---------------------------------------------------------------------------
// Treap under adversarial orders
// ---------------------------------------------------------------------------

TEST(TreapRobustnessTest, AscendingAndDescendingInsertions) {
  util::Treap<int> asc, desc;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) asc.Insert(i);
  for (int i = kN; i-- > 0;) desc.Insert(i);
  EXPECT_EQ(asc.size(), static_cast<size_t>(kN));
  EXPECT_EQ(desc.size(), static_cast<size_t>(kN));
  // Random access probes stay correct (and fast enough to finish).
  util::Rng rng(1);
  for (int probe = 0; probe < 1000; ++probe) {
    int x = static_cast<int>(rng.NextBounded(kN));
    EXPECT_TRUE(asc.Contains(x));
    EXPECT_TRUE(desc.Contains(x));
  }
  // Both orders walk back as 0..kN-1.
  for (const util::Treap<int>* t : {&asc, &desc}) {
    int want = 0;
    EXPECT_TRUE(t->ForEachInOrder([&](int x) { return x == want++; }));
    EXPECT_EQ(want, kN);
  }
}

TEST(TreapRobustnessTest, EraseEverythingThenReuse) {
  util::Treap<int> t;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3000; ++i) EXPECT_TRUE(t.Insert(i));
    for (int i = 0; i < 3000; ++i) EXPECT_TRUE(t.Erase(i));
    EXPECT_TRUE(t.empty());
  }
  EXPECT_TRUE(t.Insert(42));
  std::vector<int> keys;
  t.ForEachInOrder([&](int x) {
    keys.push_back(x);
    return true;
  });
  EXPECT_EQ(keys, std::vector<int>{42});
}

TEST(TreapRobustnessTest, BuildFromSortedEmptyAndSingle) {
  util::Treap<int> t;
  t.BuildFromSorted({});
  EXPECT_TRUE(t.empty());
  t.BuildFromSorted(std::vector<int>{7});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Contains(7));
  // Rebuild replaces content.
  t.BuildFromSorted(std::vector<int>{1, 2, 3});
  EXPECT_FALSE(t.Contains(7));
  EXPECT_EQ(t.size(), 3u);
}

// ---------------------------------------------------------------------------
// FlatMap churn / clear cycles
// ---------------------------------------------------------------------------

TEST(FlatMapRobustnessTest, HeavyEraseReinsertCycles) {
  util::FlatMap<uint32_t, uint32_t> m;
  util::Rng rng(2);
  // Churn keeps the table dense near its load ceiling without tombstones.
  for (int round = 0; round < 50; ++round) {
    for (uint32_t i = 0; i < 200; ++i) m.Insert(i, i + round);
    for (uint32_t i = 0; i < 200; i += 2) m.Erase(i);
    for (uint32_t i = 0; i < 200; ++i) {
      auto* p = m.Find(i);
      if (i % 2 == 0) {
        EXPECT_EQ(p, nullptr);
      } else {
        ASSERT_NE(p, nullptr);
      }
    }
    for (uint32_t i = 0; i < 200; i += 2) m.Insert(i, i);
  }
  EXPECT_EQ(m.size(), 200u);
}

TEST(FlatMapRobustnessTest, SequentialKeysNoClustering) {
  // Sequential integer keys are the common case (vertex ids); make sure
  // lookups stay correct at scale.
  util::FlatMap<uint32_t, uint32_t> m;
  for (uint32_t i = 0; i < 100000; ++i) m.Insert(i, i * 3);
  for (uint32_t i = 0; i < 100000; i += 997) {
    ASSERT_NE(m.Find(i), nullptr);
    EXPECT_EQ(*m.Find(i), i * 3);
  }
  EXPECT_EQ(m.Find(100000), nullptr);
}

// ---------------------------------------------------------------------------
// BinaryHeap with hostile priorities
// ---------------------------------------------------------------------------

TEST(BinaryHeapRobustnessTest, AllEqualPriorities) {
  util::BinaryHeap<int> h;
  for (int i = 0; i < 1000; ++i) h.Push(i, 7);
  std::set<int> seen;
  while (!h.empty()) {
    auto e = h.Pop();
    EXPECT_EQ(e.priority, 7);
    EXPECT_TRUE(seen.insert(e.value).second);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(BinaryHeapRobustnessTest, NegativePriorities) {
  util::BinaryHeap<int, int64_t> h;
  h.Push(1, -5);
  h.Push(2, 0);
  h.Push(3, -1);
  EXPECT_EQ(h.Pop().value, 2);
  EXPECT_EQ(h.Pop().value, 3);
  EXPECT_EQ(h.Pop().value, 1);
}

// ---------------------------------------------------------------------------
// KeyedDsu churn
// ---------------------------------------------------------------------------

TEST(KeyedDsuRobustnessTest, RemoveComponentsThenRebuild) {
  util::KeyedDsuPool pool(1);
  util::KeyedDsu d = pool[0];
  util::Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    for (uint32_t v = 0; v < 60; ++v) d.AddMember(v * 7 + 1);
    for (int i = 0; i < 80; ++i) {
      uint32_t a = static_cast<uint32_t>(rng.NextBounded(60)) * 7 + 1;
      uint32_t b = static_cast<uint32_t>(rng.NextBounded(60)) * 7 + 1;
      d.Union(a, b);
    }
    // Tear everything down component by component.
    while (d.NumMembers() > 0) {
      // Find any member via ForEachMember.
      uint32_t any = 0;
      bool found = false;
      d.ForEachMember([&](uint32_t v) {
        if (!found) {
          any = v;
          found = true;
        }
      });
      ASSERT_TRUE(found);
      d.RemoveComponent(any);
    }
    EXPECT_EQ(d.NumComponents(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Graph invariants on extreme shapes
// ---------------------------------------------------------------------------

TEST(GraphRobustnessTest, SingleEdgeAndSelfLoopOnly) {
  Graph g1 = Graph::FromEdges(2, {{0, 1}});
  EXPECT_EQ(g1.NumEdges(), 1u);
  Graph g2 = Graph::FromEdges(3, {{1, 1}, {2, 2}});
  EXPECT_EQ(g2.NumEdges(), 0u);
  EXPECT_EQ(g2.MaxDegree(), 0u);
}

TEST(GraphRobustnessTest, MaxVertexIdBoundary) {
  // Vertices right at the n-1 boundary.
  const VertexId n = 1000;
  Graph g = Graph::FromEdges(n, {{0, n - 1}, {n - 2, n - 1}});
  EXPECT_EQ(g.Degree(n - 1), 2u);
  EXPECT_TRUE(g.HasEdge(n - 1, 0));
  EXPECT_EQ(graph::CommonNeighbors(g, 0, n - 2),
            (std::vector<VertexId>{n - 1}));
}

TEST(GraphRobustnessTest, StarDagOrientationPointsAtHub) {
  // Degree ordering must orient all spokes leaf -> hub; the hub has
  // out-degree 0 and every leaf exactly 1.
  graph::GraphBuilder b(1001);
  for (VertexId i = 1; i <= 1000; ++i) b.AddEdge(0, i);
  Graph g = b.Build();
  graph::DegreeOrderedDag dag(g);
  EXPECT_EQ(dag.OutDegree(0), 0u);
  EXPECT_EQ(dag.MaxOutDegree(), 1u);
}

TEST(IoRobustnessTest, CrlfAndTabsAndExtraTokens) {
  Graph g;
  std::string error;
  ASSERT_TRUE(graph::ParseEdgeList("1\t2\r\n3 4 extra tokens ok\r\n", &g,
                                   &error))
      << error;
  EXPECT_EQ(g.NumEdges(), 2u);
  // A lone vertex token is malformed.
  EXPECT_FALSE(graph::ParseEdgeList("1\n", &g, &error));
}

// ---------------------------------------------------------------------------
// Generator determinism across every family
// ---------------------------------------------------------------------------

TEST(GeneratorDeterminismTest, AllFamiliesStableAcrossCalls) {
  EXPECT_EQ(gen::BarabasiAlbert(300, 3, 9).Edges(),
            gen::BarabasiAlbert(300, 3, 9).Edges());
  EXPECT_EQ(gen::HolmeKim(300, 4, 0.5, 9).Edges(),
            gen::HolmeKim(300, 4, 0.5, 9).Edges());
  EXPECT_EQ(gen::WattsStrogatz(300, 6, 0.3, 9).Edges(),
            gen::WattsStrogatz(300, 6, 0.3, 9).Edges());
  gen::CollaborationParams cp;
  cp.num_authors = 400;
  cp.num_papers = 300;
  EXPECT_EQ(gen::GenerateCollaboration(cp, 9).graph.Edges(),
            gen::GenerateCollaboration(cp, 9).graph.Edges());
  gen::WordAssociationParams wp;
  wp.background_words = 200;
  EXPECT_EQ(gen::GenerateWordAssociation(wp, 9).graph.Edges(),
            gen::GenerateWordAssociation(wp, 9).graph.Edges());
}

TEST(GeneratorDeterminismTest, SeedsProduceDistinctGraphs) {
  EXPECT_NE(gen::HolmeKim(300, 4, 0.5, 1).Edges(),
            gen::HolmeKim(300, 4, 0.5, 2).Edges());
  EXPECT_NE(gen::WattsStrogatz(300, 6, 0.3, 1).Edges(),
            gen::WattsStrogatz(300, 6, 0.3, 2).Edges());
}

}  // namespace
}  // namespace esd
