// Word-sense discovery (the paper's Exp-8 / Fig. 13): in a word-association
// network, a high-structural-diversity edge is a pair of words whose shared
// associations split into several clusters — each cluster is one *sense* of
// the pair. This example regenerates the "bank–money" analysis on the
// synthetic USF-style network.
//
// Run: build/examples/word_senses

#include <cstdio>
#include <string>
#include <vector>

#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "gen/word_association.h"

int main() {
  using namespace esd;

  gen::WordAssociationParams params;
  gen::WordAssociationGraph net = gen::GenerateWordAssociation(params, 7);
  const graph::Graph& g = net.graph;
  std::printf("word association network: n=%u m=%u\n\n", g.NumVertices(),
              g.NumEdges());

  const uint32_t tau = 2, k = 2;
  core::EsdIndex index = core::BuildIndex(g);

  for (const auto& se : index.Query(k, tau, /*pad_with_zero_edges=*/false)) {
    const std::string& wa = net.words[se.edge.u];
    const std::string& wb = net.words[se.edge.v];
    std::printf("(\"%s\", \"%s\")  structural diversity %u\n", wa.c_str(),
                wb.c_str(), se.score);

    // The sense clusters are the ego-network's connected components.
    auto components = core::EgoComponents(g, se.edge.u, se.edge.v);
    int sense = 0;
    for (const auto& members : components) {
      std::printf("  sense %d: {", ++sense);
      for (size_t i = 0; i < members.size(); ++i) {
        std::printf("%s%s", i ? ", " : "", net.words[members[i]].c_str());
      }
      std::printf("}\n");
    }
    std::printf("\n");
  }

  std::printf(
      "Each sense cluster is one context the two words share — the paper's\n"
      "NLU use case: polysemy discovered purely from graph structure.\n");
  return 0;
}
