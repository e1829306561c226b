#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/online_topk.h"
#include "esd_version.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "tests/test_helpers.h"

namespace esd {
namespace {

using core::EsdIndex;
using graph::Graph;

TEST(VersionTest, Consistent) {
  EXPECT_GE(kVersionMajor, 1);
  std::string expect = std::to_string(kVersionMajor) + "." +
                       std::to_string(kVersionMinor) + "." +
                       std::to_string(kVersionPatch);
  EXPECT_EQ(expect, kVersionString);
}

TEST(DatasetsTest, ScaleParameterGrowsGraphs) {
  gen::Dataset small = gen::LoadStandardDataset("youtube-s", 0.05);
  gen::Dataset larger = gen::LoadStandardDataset("youtube-s", 0.2);
  EXPECT_GT(larger.graph.NumVertices(), 2 * small.graph.NumVertices());
  EXPECT_GT(larger.graph.NumEdges(), 2 * small.graph.NumEdges());
}

TEST(EsdIndexTest, MoveSemanticsPreserveContents) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 5);
  EsdIndex a = core::BuildIndex(g);
  uint64_t entries = a.NumEntries();
  std::vector<uint32_t> scores = core::Scores(a.Query(10, 2));
  EsdIndex b = std::move(a);
  EXPECT_EQ(b.NumEntries(), entries);
  EXPECT_EQ(core::Scores(b.Query(10, 2)), scores);
  EsdIndex c;
  c = std::move(b);
  EXPECT_EQ(c.NumEntries(), entries);
  EXPECT_EQ(core::Scores(c.Query(10, 2)), scores);
}

TEST(OnlineTopKTest, DeterministicAcrossRuns) {
  Graph g = gen::ErdosRenyiGnp(50, 0.25, 7);
  auto a = core::OnlineTopK(g, 15, 2, core::UpperBoundRule::kCommonNeighbor);
  auto b = core::OnlineTopK(g, 15, 2, core::UpperBoundRule::kCommonNeighbor);
  EXPECT_EQ(a, b);  // full edge identity, not just scores
}

TEST(OnlineTopKTest, ResultsSortedByScore) {
  Graph g = gen::ErdosRenyiGnp(60, 0.2, 9);
  for (auto rule : {core::UpperBoundRule::kMinDegree,
                    core::UpperBoundRule::kCommonNeighbor}) {
    auto r = core::OnlineTopK(g, 30, 2, rule);
    for (size_t i = 1; i < r.size(); ++i) {
      EXPECT_GE(r[i - 1].score, r[i].score);
    }
  }
}

}  // namespace
}  // namespace esd
