// Exp-8 / Fig. 13: word-association case study (tau=2, k=2). Checks that
// the top structural-diversity edges are the planted polysemous pairs and
// that their ego-network components recover the planted senses exactly;
// also reports the CN and BT top pairs for contrast (the paper: CN pairs
// are strongly associated but mono-sense; BT pairs share few neighbors).

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "baselines/betweenness.h"
#include "baselines/common_neighbor.h"
#include "bench/bench_common.h"
#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "gen/word_association.h"
#include "graph/connectivity.h"
#include "util/flat_map.h"

namespace {

using esd::gen::WordAssociationGraph;
using esd::graph::VertexId;

// Components of the pair's ego-network, as sets of words.
std::vector<std::set<std::string>> SenseClusters(
    const WordAssociationGraph& net, VertexId a, VertexId b) {
  std::vector<std::set<std::string>> out;
  for (const auto& members : esd::core::EgoComponents(net.graph, a, b)) {
    std::set<std::string> sense;
    for (VertexId w : members) sense.insert(net.words[w]);
    out.push_back(std::move(sense));
  }
  return out;
}

}  // namespace

int main() {
  using namespace esd;

  gen::WordAssociationParams params;
  gen::WordAssociationGraph net = gen::GenerateWordAssociation(params, 0xD0C);
  std::printf("word association network: n=%u m=%u (USF-style synthetic)\n\n",
              net.graph.NumVertices(), net.graph.NumEdges());

  const uint32_t tau = 2, k = 2;
  core::EsdIndex index = core::BuildIndex(net.graph);
  core::TopKResult top = index.Query(k, tau, /*pad_with_zero_edges=*/false);

  std::set<graph::Edge> planted(net.planted_pairs.begin(),
                                net.planted_pairs.end());
  uint32_t hits = 0;
  for (const core::ScoredEdge& se : top) {
    hits += planted.count(se.edge);
    std::printf("top edge: (\"%s\", \"%s\")  score %u%s\n",
                net.words[se.edge.u].c_str(), net.words[se.edge.v].c_str(),
                se.score, planted.count(se.edge) ? "  [planted pair]" : "");
    auto clusters = SenseClusters(net, se.edge.u, se.edge.v);
    for (size_t c = 0; c < clusters.size(); ++c) {
      std::printf("  sense %zu: {", c + 1);
      bool first = true;
      for (const std::string& w : clusters[c]) {
        std::printf("%s%s", first ? "" : ", ", w.c_str());
        first = false;
      }
      std::printf("}\n");
    }
  }
  std::printf("\nESD top-%u planted-pair precision: %u/%u\n\n", k, hits, k);

  // Ground-truth check: do the recovered senses of the best pair match the
  // planted senses exactly?
  if (!top.empty()) {
    const auto& e = top[0].edge;
    auto clusters = SenseClusters(net, e.u, e.v);
    const gen::PolysemousPair* truth = nullptr;
    for (size_t i = 0; i < net.planted_pairs.size(); ++i) {
      if (net.planted_pairs[i] == e) truth = &net.ground_truth[i];
    }
    if (truth != nullptr) {
      std::set<std::set<std::string>> got(clusters.begin(), clusters.end());
      std::set<std::set<std::string>> want;
      for (const auto& sense : truth->senses) {
        want.emplace(sense.begin(), sense.end());
      }
      std::printf("sense recovery for the top pair: %s\n",
                  got == want ? "EXACT (all planted senses recovered)"
                              : "partial");
    }
  }

  // Contrast with CN and BT (paper: strongly-associated but mono-sense /
  // weakly-associated pairs).
  auto cn = baselines::TopKByCommonNeighbors(net.graph, k);
  std::printf("\nCN top pairs:");
  for (const auto& se : cn) {
    std::printf(" (\"%s\",\"%s\") comps=%zu",
                net.words[se.edge.u].c_str(), net.words[se.edge.v].c_str(),
                SenseClusters(net, se.edge.u, se.edge.v).size());
  }
  auto bt = baselines::TopKByBetweenness(net.graph, k, 300);
  std::printf("\nBT top pairs:");
  for (const auto& se : bt.edges) {
    std::printf(" (\"%s\",\"%s\") |N(uv)|=%u", net.words[se.edge.u].c_str(),
                net.words[se.edge.v].c_str(),
                graph::CountCommonNeighbors(net.graph, se.edge.u, se.edge.v));
  }
  std::printf("\n");
  return 0;
}
