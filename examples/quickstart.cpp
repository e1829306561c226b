// Quickstart: build a small graph, compute edge structural diversities, and
// answer top-k queries three ways (naive, online, index).
//
// Run: build/examples/quickstart

#include <cstdio>

#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/naive_topk.h"
#include "core/online_topk.h"
#include "graph/builder.h"

int main() {
  using namespace esd;

  // A toy social graph: two friend circles meeting through the edge (0,1).
  //   Circle A: {2,3} know each other and both know 0 and 1.
  //   Circle B: {4,5} likewise.
  //   Vertex 6 knows 0 and 1 but nobody else (an isolated context).
  graph::GraphBuilder builder(7);
  builder.AddEdge(0, 1);
  for (graph::VertexId w : {2, 3, 4, 5, 6}) {
    builder.AddEdge(0, w);
    builder.AddEdge(1, w);
  }
  builder.AddEdge(2, 3);
  builder.AddEdge(4, 5);
  graph::Graph g = builder.Build();

  std::printf("graph: n=%u m=%u\n\n", g.NumVertices(), g.NumEdges());

  // The structural diversity of (0,1): its ego-network {2,3,4,5,6} has
  // components {2,3}, {4,5}, {6}.
  for (uint32_t tau = 1; tau <= 3; ++tau) {
    std::printf("score(0,1) at tau=%u: %u\n", tau,
                core::EdgeScore(g, 0, 1, tau));
  }

  const uint32_t k = 3, tau = 2;

  std::printf("\ntop-%u edges at tau=%u\n", k, tau);
  std::printf("%-12s %-12s %-12s\n", "algorithm", "edge", "score");
  for (const auto& se : core::NaiveTopK(g, k, tau)) {
    std::printf("%-12s (%u,%u)%-7s %u\n", "naive", se.edge.u, se.edge.v, "",
                se.score);
  }
  for (const auto& se : core::OnlineTopK(g, k, tau,
                                         core::UpperBoundRule::kCommonNeighbor)) {
    std::printf("%-12s (%u,%u)%-7s %u\n", "online", se.edge.u, se.edge.v, "",
                se.score);
  }

  // Index-based: build once, query in O(k log m + log n).
  core::EsdIndex index = core::BuildIndex(g);
  std::printf("index: %zu lists, %llu entries\n", index.NumLists(),
              static_cast<unsigned long long>(index.NumEntries()));
  for (const auto& se : index.Query(k, tau)) {
    std::printf("%-12s (%u,%u)%-7s %u\n", "index", se.edge.u, se.edge.v, "",
                se.score);
  }
  return 0;
}
