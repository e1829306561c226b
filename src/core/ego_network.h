#ifndef ESD_CORE_EGO_NETWORK_H_
#define ESD_CORE_EGO_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/ego_net.h"
#include "graph/graph.h"

namespace esd::core {

/// Sizes of the connected components of the edge ego-network G_{N(uv)}
/// (Definition 1), sorted ascending. G is a Graph or a DynamicGraph. With
/// the default probe this is exactly the paper's BFS (Algorithm 1 line 13 /
/// Algorithm 2 lines 1-2), cost O(Σ_{w∈N(uv)} d(w)); kShorterSide is the
/// output-sensitive variant the builder ablation measures.
template <typename G>
std::vector<uint32_t> EgoComponentSizes(
    const G& g, graph::VertexId u, graph::VertexId v,
    graph::EgoProbe probe = graph::EgoProbe::kScanNeighbors) {
  graph::EgoScratch& ego = graph::ThreadEgoScratch();
  ego.BuildCommon(g, u, v, probe);
  return ego.SortedComponentSizes();
}

/// The connected components of the edge ego-network, as member lists
/// (each inner vector sorted ascending; components ordered by ascending
/// size, ties by smallest member). The "social contexts" themselves —
/// what the case studies display (each component is one sense / one
/// community around the tie).
std::vector<std::vector<graph::VertexId>> EgoComponents(const graph::Graph& g,
                                                        graph::VertexId u,
                                                        graph::VertexId v);

/// Edge structural diversity score(u, v): number of connected components of
/// G_{N(uv)} with size >= tau (Definition 2). tau must be >= 1.
uint32_t EdgeScore(const graph::Graph& g, graph::VertexId u, graph::VertexId v,
                   uint32_t tau);

/// Score derived from a (sorted ascending) component-size list: the
/// number of its values >= tau, one binary search.
inline uint32_t ScoreFromSizes(std::span<const uint32_t> sorted_sizes,
                               uint32_t tau) {
  return static_cast<uint32_t>(
      sorted_sizes.end() -
      std::lower_bound(sorted_sizes.begin(), sorted_sizes.end(), tau));
}

}  // namespace esd::core

#endif  // ESD_CORE_EGO_NETWORK_H_
