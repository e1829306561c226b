// Social-contagion scenario from the paper's introduction: in a social
// network, the edges with the highest structural diversity touch many
// distinct social contexts and are prime channels for information
// diffusion. This example builds a clustered scale-free network, finds
// those edges, and contrasts edge diversity with the classic *vertex*
// structural diversity of Ugander et al.
//
// Run: build/examples/social_contagion

#include <cstdio>

#include "baselines/vertex_diversity.h"
#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "core/score_profile.h"
#include "gen/holme_kim.h"
#include "graph/core_decomposition.h"

int main() {
  using namespace esd;

  // A 3000-user social network with hubs and tight friend clusters.
  graph::Graph g = gen::HolmeKim(3000, 8, 0.5, /*seed=*/2024);
  graph::CoreDecomposition cores = graph::ComputeCores(g);
  std::printf("social network: n=%u m=%u dmax=%u degeneracy=%u\n\n",
              g.NumVertices(), g.NumEdges(), g.MaxDegree(), cores.degeneracy);

  const uint32_t tau = 2;
  core::EsdIndex index = core::BuildIndex(g);

  std::printf("top-5 edges by structural diversity (tau=%u):\n", tau);
  std::printf("%-10s %-7s %-22s\n", "edge", "score", "ego components >= tau");
  for (const auto& se : index.Query(5, tau)) {
    auto sizes = core::EgoComponentSizes(g, se.edge.u, se.edge.v);
    std::printf("(%u,%u)\t %-7u [", se.edge.u, se.edge.v, se.score);
    bool first = true;
    for (uint32_t s : sizes) {
      if (s < tau) continue;
      std::printf("%s%u", first ? "" : ", ", s);
      first = false;
    }
    std::printf("]\n");
  }

  // How rare are diverse ties? The score histogram answers without
  // touching the graph again.
  core::ScoreHistogram hist = core::ComputeScoreHistogram(index, tau);
  std::printf("\nscore distribution at tau=%u: mean %.2f, max %u, ", tau,
              hist.mean, hist.max_score);
  std::printf("median %u, p99 %u\n", core::ScorePercentile(hist, 0.5),
              core::ScorePercentile(hist, 0.99));

  // Vertex structural diversity for comparison: counts contexts around a
  // single user rather than around a tie.
  std::printf("\ntop-5 users by vertex structural diversity (tau=%u):\n", tau);
  for (const auto& sv : baselines::TopKVertexDiversity(g, 5, tau)) {
    std::printf("user %-6u score %-4u degree %u\n", sv.v, sv.score,
                g.Degree(sv.v));
  }

  std::printf(
      "\nNote how the top edges connect users whose shared friends split\n"
      "into several disjoint circles: information crossing that tie can\n"
      "reach all of those circles at once, which is exactly the contagion\n"
      "amplifier the paper targets.\n");
  return 0;
}
