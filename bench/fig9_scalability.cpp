// Exp-5 / Figs. 9-10: scalability on livejournal-s subgraphs obtained by
// sampling 20%..100% of the edges (Fig. 9a / 10a) and of the vertices
// (Fig. 9b / 10b). The paper's findings to reproduce:
//   * OnlineBFS+ grows smoothly (roughly linearly) with graph size,
//   * IndexSearch stays flat and ~4 orders of magnitude faster,
//   * PESDIndex+ construction grows smoothly; multi-threaded runs keep a
//     stable speedup across sizes (hardware permitting).

#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/online_topk.h"
#include "graph/sampling.h"

int main() {
  using namespace esd;
  using core::OnlineTopK;
  using core::UpperBoundRule;

  const uint32_t k = 100, tau = 3;
  const unsigned max_threads =
      std::max(1u, std::thread::hardware_concurrency());
  gen::Dataset d = bench::Load("livejournal-s");
  std::printf("base: %s n=%u m=%u; query k=%u tau=%u\n\n", d.name.c_str(),
              d.graph.NumVertices(), d.graph.NumEdges(), k, tau);

  for (int mode = 0; mode < 2; ++mode) {
    const char* label = mode == 0 ? "edges" : "vertices";
    std::printf("-- sampling %s (Fig. 9%s, 10%s)\n", label,
                mode == 0 ? "a" : "b", mode == 0 ? "a" : "b");
    std::printf("%5s %10s %10s %16s %16s %14s %14s\n", "pct", "n", "m",
                "OnlineBFS+ (ms)", "IndexSearch(ms)", "build t=1 (ms)",
                "build t=max");
    for (int pct : {20, 40, 60, 80, 100}) {
      graph::Graph g =
          pct == 100
              ? d.graph
              : (mode == 0 ? graph::SampleEdges(d.graph, pct / 100.0, 77)
                           : graph::SampleVertices(d.graph, pct / 100.0, 77));
      double online = bench::TimeOnce(
          [&] { OnlineTopK(g, k, tau, UpperBoundRule::kCommonNeighbor); });
      core::EsdIndex index = core::BuildIndex(g);
      double query = bench::TimeMean([&] { index.Query(k, tau); });
      double build1 = bench::TimeOnce([&] { core::BuildIndex(g); });
      double buildN = bench::TimeOnce(
          [&] { core::BuildIndex(g, core::EsdScorer(), max_threads); });
      std::printf("%4d%% %10u %10u %16.2f %16.4f %14.1f %14.1f\n", pct,
                  g.NumVertices(), g.NumEdges(), online * 1e3, query * 1e3,
                  build1 * 1e3, buildN * 1e3);
    }
    std::printf("\n");
  }
  return 0;
}
