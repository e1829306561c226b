// Heavy randomized stress of the dynamic index: after EVERY update on a
// small graph, every invariant we can state is checked — the per-edge
// disjoint sets match a fresh BFS of the current ego-networks, the H lists
// match the stored multisets, and queries match the naive ground truth.
// This is the test that would have caught any drift between Algorithms 4/5
// and the static definitions.

#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_index.h"
#include "core/ego_network.h"
#include "core/naive_topk.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace esd::core {
namespace {

using graph::Edge;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

void CheckEverything(const DynamicEsdIndex& dyn) {
  const graph::DynamicGraph& g = dyn.CurrentGraph();
  const EsdIndex& index = dyn.Index();

  // 1. Stored multisets equal a fresh ego BFS on the current graph.
  std::vector<EdgeId> live;
  for (EdgeId e = 0; e < index.EdgeSlotCount(); ++e) {
    if (!index.IsLive(e)) continue;
    live.push_back(e);
    Edge uv = index.EdgeAt(e);
    ASSERT_TRUE(g.HasEdge(uv.u, uv.v));
    EXPECT_EQ(test::Values(index.EdgeSizes(e)),
              EgoComponentSizes(g, uv.u, uv.v))
        << "edge (" << uv.u << "," << uv.v << ")";
  }
  EXPECT_EQ(live.size(), g.NumEdges());

  // 2. H lists are exactly what the multisets dictate.
  test::ExpectIndexInvariant(index, live, [&index](EdgeId e) {
    return index.EdgeSizes(e);
  });

  // 3. Queries agree with naive top-k on a snapshot.
  Graph snap = g.Snapshot();
  for (uint32_t tau : {1u, 2u, 3u}) {
    EXPECT_EQ(Scores(dyn.Query(12, tau)), test::NaiveTopScores(snap, 12, tau))
        << "tau=" << tau;
  }
}

struct FuzzParam {
  uint64_t seed;
  DeletionStrategy strategy;

  friend void PrintTo(const FuzzParam& p, std::ostream* os) {
    *os << "seed" << p.seed
        << (p.strategy == DeletionStrategy::kTargeted ? "_targeted"
                                                      : "_rebuild");
  }
};

class FuzzDynamicTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(FuzzDynamicTest, EveryStepKeepsAllInvariants) {
  auto [seed, strategy] = GetParam();
  util::Rng rng(seed);
  constexpr VertexId kN = 12;
  Graph g = gen::ErdosRenyiGnp(kN, 0.35, seed);
  DynamicEsdIndex dyn(g, strategy);
  CheckEverything(dyn);
  for (int step = 0; step < 80; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(kN));
    VertexId v = static_cast<VertexId>(rng.NextBounded(kN));
    if (u == v) continue;
    if (dyn.CurrentGraph().HasEdge(u, v)) {
      ASSERT_TRUE(dyn.DeleteEdge(u, v));
    } else {
      ASSERT_TRUE(dyn.InsertEdge(u, v));
    }
    CheckEverything(dyn);
    if (::testing::Test::HasFailure()) {
      FAIL() << "invariants broke at step " << step << " after "
             << (dyn.CurrentGraph().HasEdge(u, v) ? "insert" : "delete")
             << " (" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzDynamicTest,
    ::testing::Values(FuzzParam{101, DeletionStrategy::kTargeted},
                      FuzzParam{102, DeletionStrategy::kTargeted},
                      FuzzParam{103, DeletionStrategy::kTargeted},
                      FuzzParam{104, DeletionStrategy::kTargeted},
                      FuzzParam{101, DeletionStrategy::kRebuildLocal},
                      FuzzParam{102, DeletionStrategy::kRebuildLocal}));

TEST(FuzzBatchTest, RandomBatchesKeepInvariants) {
  util::Rng rng(777);
  constexpr VertexId kN = 14;
  Graph g = gen::ErdosRenyiGnp(kN, 0.3, 777);
  DynamicEsdIndex dyn(g);
  using Update = DynamicEsdIndex::EdgeUpdate;
  for (int round = 0; round < 10; ++round) {
    std::vector<Update> batch;
    graph::DynamicGraph shadow = dyn.CurrentGraph();  // to predict validity
    for (int i = 0; i < 12; ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(kN));
      VertexId v = static_cast<VertexId>(rng.NextBounded(kN));
      if (u == v) continue;
      if (shadow.HasEdge(u, v)) {
        batch.push_back({Update::Kind::kDelete, u, v});
        shadow.EraseEdge(u, v);
      } else {
        batch.push_back({Update::Kind::kInsert, u, v});
        shadow.InsertEdge(u, v);
      }
    }
    EXPECT_EQ(dyn.ApplyBatch(batch), batch.size());
    CheckEverything(dyn);
  }
}

}  // namespace
}  // namespace esd::core
