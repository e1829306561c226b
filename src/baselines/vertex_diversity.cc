#include "baselines/vertex_diversity.h"

#include <algorithm>
#include <numeric>

#include "graph/ego_net.h"

namespace esd::baselines {

using graph::Graph;
using graph::VertexId;

uint32_t VertexScore(const Graph& g, VertexId v, uint32_t tau) {
  graph::EgoScratch& ego = graph::ThreadEgoScratch();
  ego.Build(g, g.Neighbors(v), graph::EgoProbe::kShorterSide);
  return ego.ComponentsAtLeast(tau);
}

std::vector<uint32_t> AllVertexScores(const Graph& g, uint32_t tau) {
  std::vector<uint32_t> scores(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    scores[v] = VertexScore(g, v, tau);
  }
  return scores;
}

std::vector<ScoredVertex> TopKVertexDiversity(const Graph& g, uint32_t k,
                                              uint32_t tau) {
  std::vector<uint32_t> scores = AllVertexScores(g, tau);
  std::vector<VertexId> ids(g.NumVertices());
  std::iota(ids.begin(), ids.end(), 0);
  size_t take = std::min<size_t>(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + take, ids.end(),
                    [&scores](VertexId a, VertexId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  std::vector<ScoredVertex> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ScoredVertex{ids[i], scores[ids[i]]});
  }
  return out;
}

}  // namespace esd::baselines
