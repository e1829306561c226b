#include "core/ego_network.h"

#include <algorithm>

namespace esd::core {

using graph::Graph;
using graph::VertexId;

std::vector<std::vector<VertexId>> EgoComponents(const Graph& g, VertexId u,
                                                 VertexId v) {
  graph::EgoScratch& ego = graph::ThreadEgoScratch();
  ego.BuildCommon(g, u, v);
  std::vector<std::vector<VertexId>> components(ego.ComponentSizes().size());
  for (uint32_t i = 0; i < ego.NumMembers(); ++i) {
    components[ego.Label(i)].push_back(ego.Members()[i]);
  }
  // Labels follow each component's smallest member, so a stable sort by
  // size leaves ties in smallest-member order.
  std::stable_sort(components.begin(), components.end(),
                   [](const std::vector<VertexId>& a,
                      const std::vector<VertexId>& b) {
                     return a.size() < b.size();
                   });
  return components;
}

uint32_t EdgeScore(const Graph& g, VertexId u, VertexId v, uint32_t tau) {
  graph::EgoScratch& ego = graph::ThreadEgoScratch();
  ego.BuildCommon(g, u, v);
  return ego.ComponentsAtLeast(tau);
}

}  // namespace esd::core
