#include <vector>

#include <gtest/gtest.h>

#include "core/esd_index.h"
#include "core/index_builder.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/watts_strogatz.h"
#include "graph/builder.h"
#include "graph/stats.h"
#include "util/thread_pool.h"

namespace esd::graph {
namespace {

Graph PathGraph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return b.Build();
}

TEST(StatsTest, DegreeHistogramCounts) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  Graph g = b.Build();
  std::vector<uint64_t> hist = DegreeHistogram(g);
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist[0], 1u);  // vertex 4
  EXPECT_EQ(hist[1], 3u);  // leaves
  EXPECT_EQ(hist[2], 0u);
  EXPECT_EQ(hist[3], 1u);  // hub
}

TEST(StatsTest, AssortativitySigns) {
  // Star graphs are maximally disassortative.
  GraphBuilder star(8);
  for (VertexId i = 1; i < 8; ++i) star.AddEdge(0, i);
  EXPECT_LT(DegreeAssortativity(star.Build()), -0.99);
  // Regular graphs have no degree variance -> 0 by convention.
  EXPECT_DOUBLE_EQ(DegreeAssortativity(gen::WattsStrogatz(50, 4, 0.0, 1)),
                   0.0);
  // BA graphs trend disassortative; ER near 0.
  EXPECT_LT(DegreeAssortativity(gen::BarabasiAlbert(2000, 3, 2)), 0.05);
  double er = DegreeAssortativity(gen::ErdosRenyiGnp(300, 0.1, 3));
  EXPECT_NEAR(er, 0.0, 0.15);
}

TEST(StatsTest, MeanDistanceOnPath) {
  // Exact mean over all ordered reachable pairs of a path of 5:
  // distances 1..4 weighted; sampling all sources gives the exact value.
  Graph g = PathGraph(5);
  double mean = EstimateMeanDistance(g, 200, 7);
  // True mean pairwise distance of P5 = 2.0.
  EXPECT_NEAR(mean, 2.0, 0.25);
  EXPECT_DOUBLE_EQ(EstimateMeanDistance(Graph(), 10, 1), 0.0);
}

TEST(StatsTest, SmallWorldDistancesShrinkWithRewiring) {
  double lattice = EstimateMeanDistance(gen::WattsStrogatz(400, 4, 0.0, 5),
                                        60, 5);
  double rewired = EstimateMeanDistance(gen::WattsStrogatz(400, 4, 0.2, 5),
                                        60, 5);
  EXPECT_LT(rewired, lattice * 0.6);  // the small-world effect
}

TEST(StatsTest, LargestComponentFraction) {
  Graph g = Graph::FromEdges(10, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(LargestComponentFraction(g), 0.3);
  EXPECT_DOUBLE_EQ(LargestComponentFraction(Graph()), 0.0);
  EXPECT_GT(LargestComponentFraction(gen::BarabasiAlbert(100, 2, 1)), 0.99);
}

TEST(ConcurrencyTest, ParallelQueriesAreSafeAndConsistent) {
  // EsdIndex queries are const and safe to issue from many threads.
  Graph g = gen::ErdosRenyiGnp(60, 0.3, 11);
  core::EsdIndex index = core::BuildIndex(g);
  std::vector<std::vector<uint32_t>> expected(7);
  for (uint32_t tau = 1; tau <= 6; ++tau) {
    expected[tau] = core::Scores(index.Query(20, tau));
  }
  util::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(0, 600, 10, [&](uint64_t i) {
    uint32_t tau = 1 + static_cast<uint32_t>(i % 6);
    if (core::Scores(index.Query(20, tau)) != expected[tau]) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace esd::graph
