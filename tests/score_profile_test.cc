#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/naive_topk.h"
#include "core/query_engine.h"
#include "core/score_profile.h"
#include "core/scorer.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "graph/builder.h"

namespace esd::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

TEST(ScoreProfileTest, MatchesNaiveHistogram) {
  for (uint64_t seed : {1ull, 2ull}) {
    Graph g = gen::ErdosRenyiGnp(40, 0.3, seed);
    EsdIndex index = BuildIndex(g);
    for (uint32_t tau : {1u, 2u, 3u}) {
      ScoreHistogram h = ComputeScoreHistogram(index, tau);
      std::vector<uint32_t> scores = AllEdgeScores(g, tau);
      std::vector<uint64_t> want(h.count.size(), 0);
      uint64_t sum = 0;
      uint32_t max_score = 0;
      for (uint32_t s : scores) {
        ASSERT_LT(s, want.size());
        ++want[s];
        sum += s;
        max_score = std::max(max_score, s);
      }
      EXPECT_EQ(h.count, want) << "tau=" << tau << " seed=" << seed;
      EXPECT_EQ(h.total_edges, scores.size());
      EXPECT_EQ(h.max_score, max_score);
      EXPECT_DOUBLE_EQ(
          h.mean, scores.empty()
                      ? 0.0
                      : static_cast<double>(sum) / scores.size());
    }
  }
}

/// Expects ComputeScoreHistogram(engine, tau) to be the histogram of
/// `scores` (one per edge).
void ExpectHistogramOf(const EsdQueryEngine& engine, uint32_t tau,
                       const std::vector<uint32_t>& scores) {
  const ScoreHistogram h = ComputeScoreHistogram(engine, tau);
  std::vector<uint64_t> want;
  uint64_t sum = 0;
  for (uint32_t s : scores) {
    if (s >= want.size()) want.resize(s + 1, 0);
    ++want[s];
    sum += s;
  }
  const std::string where =
      std::string(engine.EngineName()) + " tau=" + std::to_string(tau);
  EXPECT_EQ(h.count, want) << where;
  EXPECT_EQ(h.total_edges, scores.size()) << where;
  EXPECT_EQ(h.max_score, want.empty() ? 0 : want.size() - 1) << where;
  EXPECT_DOUBLE_EQ(h.mean, scores.empty()
                               ? 0.0
                               : static_cast<double>(sum) / scores.size())
      << where;
}

TEST(ScoreProfileTest, EveryEngineMatchesNaive) {
  const Graph g = gen::HolmeKim(80, 4, 0.6, 3);
  for (const std::string& name : QueryEngineNames()) {
    std::string error;
    const std::unique_ptr<EsdQueryEngine> engine =
        BuildQueryEngine(g, name, EsdScorer(), &error);
    ASSERT_NE(engine, nullptr) << error;
    for (uint32_t tau : {1u, 2u, 3u}) {
      ExpectHistogramOf(*engine, tau, AllEdgeScores(g, tau));
    }
  }
  // A scorer other than ESD: the full-scan adapter and a frozen index,
  // both against the scorer's single-edge reference.
  const ScorerOnlineEngine ref(g, TrussScorer());
  const FrozenEsdIndex frozen = BuildFrozenIndex(g, TrussScorer());
  for (uint32_t tau : {1u, 2u, 3u}) {
    std::vector<uint32_t> scores;
    for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
      scores.push_back(ref.ScoreOf(e, tau));
    }
    ExpectHistogramOf(ref, tau, scores);
    ExpectHistogramOf(frozen, tau, scores);
  }
}

TEST(ScoreProfileTest, EmptyIndex) {
  EsdIndex index;
  ScoreHistogram h = ComputeScoreHistogram(index, 2);
  EXPECT_EQ(h.total_edges, 0u);
  EXPECT_EQ(h.max_score, 0u);
  EXPECT_EQ(ScorePercentile(h, 0.5), 0u);
}

TEST(ScoreProfileTest, AllZeroScores) {
  // A star: no edge has a common neighbor.
  GraphBuilder b(6);
  for (VertexId i = 1; i < 6; ++i) b.AddEdge(0, i);
  EsdIndex index = BuildIndex(b.Build());
  ScoreHistogram h = ComputeScoreHistogram(index, 1);
  EXPECT_EQ(h.count[0], 5u);
  EXPECT_EQ(h.max_score, 0u);
  EXPECT_DOUBLE_EQ(h.mean, 0.0);
  EXPECT_EQ(ScorePercentile(h, 0.99), 0u);
}

TEST(ScoreProfileTest, PercentileMonotone) {
  Graph g = gen::HolmeKim(300, 5, 0.6, 5);
  EsdIndex index = BuildIndex(g);
  ScoreHistogram h = ComputeScoreHistogram(index, 2);
  uint32_t prev = 0;
  for (double f : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    uint32_t s = ScorePercentile(h, f);
    EXPECT_GE(s, prev);
    prev = s;
  }
  EXPECT_EQ(ScorePercentile(h, 1.0), h.max_score);
}

TEST(ScoreProfileTest, PercentileBoundaries) {
  // Hand-built histogram: 4 edges at 0, 3 at 1, 2 at 2, 1 at 5.
  ScoreHistogram h;
  h.count = {4, 3, 2, 0, 0, 1};
  h.total_edges = 10;
  h.max_score = 5;

  // fraction 0.0 is "at least none of the edges" — always score 0, even
  // though the cumulative count at 0 is positive.
  EXPECT_EQ(ScorePercentile(h, 0.0), 0u);
  // fraction 1.0 must reach the exact max, not overshoot past it.
  EXPECT_EQ(ScorePercentile(h, 1.0), 5u);
  // Out-of-range fractions clamp instead of indexing out of bounds.
  EXPECT_EQ(ScorePercentile(h, -0.5), 0u);
  EXPECT_EQ(ScorePercentile(h, 1.5), 5u);

  // Interior fractions: ceil semantics. 40% of edges score <= 0; the
  // smallest s covering 41% is 1; covering 95% is 5.
  EXPECT_EQ(ScorePercentile(h, 0.4), 0u);
  EXPECT_EQ(ScorePercentile(h, 0.41), 1u);
  EXPECT_EQ(ScorePercentile(h, 0.7), 1u);
  EXPECT_EQ(ScorePercentile(h, 0.9), 2u);
  EXPECT_EQ(ScorePercentile(h, 0.95), 5u);

  // Empty histogram: every fraction is 0.
  ScoreHistogram empty;
  for (double f : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(ScorePercentile(empty, f), 0u);
  }

  // Single-bucket histogram (all edges score 0).
  ScoreHistogram zeros;
  zeros.count = {7};
  zeros.total_edges = 7;
  for (double f : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(ScorePercentile(zeros, f), 0u);
  }
}

TEST(ScoreProfileTest, PaperObservationDblpScoresSmallForLargeTau) {
  // Exp-7: "when tau >= 3, the structural diversity scores of most edges
  // ... are no larger than 3". Check the same qualitative fact on the
  // collaboration-like stand-in via the histogram.
  Graph g = gen::HolmeKim(500, 6, 0.6, 9);
  EsdIndex index = BuildIndex(g);
  ScoreHistogram h3 = ComputeScoreHistogram(index, 3);
  EXPECT_LE(ScorePercentile(h3, 0.95), 3u);
  // At tau = 1 scores are much richer.
  ScoreHistogram h1 = ComputeScoreHistogram(index, 1);
  EXPECT_GT(h1.mean, h3.mean);
}

}  // namespace
}  // namespace esd::core
