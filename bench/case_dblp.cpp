// Exp-7 / Fig. 12: DBLP case study (tau=2). Quantifies the paper's
// qualitative claims on the collaboration network with planted ground
// truth:
//   * ESD's top-k edges are the planted multi-community bridges: many ego
//     components, endpoints with many co-authored papers (strong ties);
//   * CN's top-k edges sit inside one dense community (1-2 big components);
//   * BT's top-k edges are weak ties (few or no common neighbors), barbell
//     joints between two blobs.

#include <algorithm>
#include <cstdio>
#include <set>

#include "baselines/betweenness.h"
#include "baselines/common_neighbor.h"
#include "bench/bench_common.h"
#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "gen/collaboration.h"
#include "util/timer.h"

namespace {

using esd::core::ScoredEdge;
using esd::core::TopKResult;
using esd::gen::CollaborationGraph;
using esd::graph::Edge;

struct MethodSummary {
  double avg_components = 0;   // ego components of the top edges
  double avg_common = 0;       // |N(uv)| of the top edges — tie strength
  double avg_span = 0;         // communities among common neighbors
  uint32_t planted_bridges = 0;
  uint32_t planted_barbells = 0;
};

MethodSummary Summarize(const CollaborationGraph& net,
                        const TopKResult& top) {
  MethodSummary s;
  std::set<Edge> bridges(net.planted_bridges.begin(),
                         net.planted_bridges.end());
  std::set<Edge> barbells(net.planted_barbells.begin(),
                          net.planted_barbells.end());
  for (const ScoredEdge& se : top) {
    auto common =
        esd::graph::CommonNeighbors(net.graph, se.edge.u, se.edge.v);
    auto sizes = esd::core::EgoComponentSizes(net.graph, se.edge.u, se.edge.v);
    std::set<uint32_t> span;
    for (auto w : common) span.insert(net.community[w]);
    s.avg_components += static_cast<double>(sizes.size());
    s.avg_common += static_cast<double>(common.size());
    s.avg_span += static_cast<double>(span.size());
    s.planted_bridges += bridges.count(se.edge);
    s.planted_barbells += barbells.count(se.edge);
  }
  double n = top.empty() ? 1.0 : static_cast<double>(top.size());
  s.avg_components /= n;
  s.avg_common /= n;
  s.avg_span /= n;
  return s;
}

}  // namespace

int main() {
  using namespace esd;

  gen::CollaborationParams params;
  params.num_authors =
      static_cast<uint32_t>(12000 * bench::BenchScale());
  params.num_papers = static_cast<uint32_t>(18000 * bench::BenchScale());
  params.num_communities = 30;
  params.barbell_clique_size = 35;
  gen::CollaborationGraph net = gen::GenerateCollaboration(params, 0xD819);
  std::printf("DB-like network: n=%u m=%u; tau=2, k=%u planted bridges, "
              "%u planted barbells\n\n",
              net.graph.NumVertices(), net.graph.NumEdges(),
              params.num_bridge_pairs, params.num_barbells);

  const uint32_t k = params.num_bridge_pairs;
  const uint32_t tau = 2;

  core::EsdIndex index = core::BuildIndex(net.graph);
  TopKResult esd_top = index.Query(k, tau, /*pad_with_zero_edges=*/false);
  TopKResult cn_top = baselines::TopKByCommonNeighbors(net.graph, k);
  TopKResult bt_top =
      baselines::TopKByBetweenness(net.graph, k, /*num_sources=*/500).edges;

  std::printf("%-6s %14s %12s %14s %10s %10s\n", "method", "ego comps",
              "|N(uv)|", "comm. span", "bridges", "barbells");
  for (auto [name, top] : {std::pair<const char*, const TopKResult*>{
                               "ESD", &esd_top},
                           {"CN", &cn_top},
                           {"BT", &bt_top}}) {
    MethodSummary s = Summarize(net, *top);
    std::printf("%-6s %14.1f %12.1f %14.1f %7u/%-3u %7u/%-3u\n", name,
                s.avg_components, s.avg_common, s.avg_span,
                s.planted_bridges, k, s.planted_barbells, k);
  }

  std::printf("\ntop-%u edges per method:\n", k);
  for (auto [name, top] : {std::pair<const char*, const TopKResult*>{
                               "ESD", &esd_top},
                           {"CN", &cn_top},
                           {"BT", &bt_top}}) {
    std::printf("  %s:", name);
    for (const ScoredEdge& se : *top) {
      std::printf(" %s--%s", net.author_names[se.edge.u].c_str(),
                  net.author_names[se.edge.v].c_str());
    }
    std::printf("\n");
  }

  std::printf(
      "\nPaper's reading (Fig. 12): ESD edges bridge many communities with\n"
      "strong ties; CN edges are intra-community; BT edges are weak-tie\n"
      "barbell joints. The summary table above checks each claim.\n");

  // The paper's Exp-7 closing observation: "when tau >= 3 the structural
  // diversity scores of most edges are no larger than 3 ... we recommend
  // to set tau as a small constant (e.g., tau = 2)". Reproduce by
  // comparing the top scores across thresholds.
  std::printf("\ntop-1 score by threshold:");
  for (uint32_t t2 = 1; t2 <= 5; ++t2) {
    TopKResult r = index.Query(1, t2, /*pad_with_zero_edges=*/false);
    std::printf(" tau=%u:%u", t2, r.empty() ? 0 : r[0].score);
  }
  std::printf(
      "\n(scores collapse once tau exceeds the typical context size — the\n"
      "paper saw the same on DBLP at tau >= 3 and recommends small tau,\n"
      "e.g. tau = 2).\n");
  return 0;
}
