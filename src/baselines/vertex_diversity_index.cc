#include "baselines/vertex_diversity_index.h"

#include <algorithm>

#include "graph/ego_net.h"
#include "util/binary_heap.h"
#include "util/timer.h"

namespace esd::baselines {

using graph::Graph;
using graph::VertexId;

namespace {

// Sorted (ascending) component sizes of the subgraph induced by N(v).
std::vector<uint32_t> NeighborhoodComponentSizes(const Graph& g, VertexId v) {
  graph::EgoScratch& ego = graph::ThreadEgoScratch();
  ego.Build(g, g.Neighbors(v), graph::EgoProbe::kShorterSide);
  return ego.SortedComponentSizes();
}

}  // namespace

std::vector<ScoredVertex> OnlineVertexTopK(const Graph& g, uint32_t k,
                                           uint32_t tau,
                                           VertexOnlineStats* stats) {
  std::vector<ScoredVertex> result;
  if (k == 0 || g.NumVertices() == 0 || tau == 0) return result;

  auto priority = [](uint32_t value, uint32_t phase) {
    return (static_cast<int64_t>(value) << 1) | phase;
  };
  util::BinaryHeap<VertexId, int64_t> queue;
  queue.Reserve(g.NumVertices());
  util::Timer bound_timer;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const uint32_t bound = g.Degree(v) / tau;
    if (bound == 0) {
      // A neighborhood component has at most d(v) < tau vertices, so the
      // score is provably 0: certify without an induced-subgraph BFS (the
      // same zero-bound rule as the edge search).
      queue.Push(v, priority(0, 1));
      if (stats != nullptr) ++stats->zero_bound_skips;
    } else {
      queue.Push(v, priority(bound, 0));
    }
  }
  if (stats != nullptr) stats->bound_seconds = bound_timer.ElapsedSeconds();
  std::vector<uint32_t> exact(g.NumVertices(), 0);
  while (result.size() < k && !queue.empty()) {
    auto [v, prio] = queue.Pop();
    if (stats != nullptr) ++stats->heap_pops;
    if ((prio & 1) != 0) {
      result.push_back(ScoredVertex{v, exact[v]});
      continue;
    }
    exact[v] = VertexScore(g, v, tau);
    if (stats != nullptr) ++stats->exact_computations;
    queue.Push(v, priority(exact[v], 1));
  }
  return result;
}

VsdIndex::VsdIndex(const Graph& g) : max_size_(g.NumVertices(), 0) {
  std::vector<uint64_t> offsets{0};
  std::vector<uint32_t> values;
  offsets.reserve(g.NumVertices() + 1);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const std::vector<uint32_t> sizes = NeighborhoodComponentSizes(g, v);
    if (!sizes.empty()) max_size_[v] = sizes.back();
    values.insert(values.end(), sizes.begin(), sizes.end());
    offsets.push_back(values.size());
  }
  lists_ = core::LayOutLists(offsets, values);
}

std::vector<ScoredVertex> VsdIndex::Query(uint32_t k, uint32_t tau,
                                          bool pad_with_zero_vertices) const {
  std::vector<ScoredVertex> out;
  if (k == 0 || tau == 0) return out;
  const auto it =
      std::lower_bound(lists_.sizes.begin(), lists_.sizes.end(), tau);
  // A vertex is in H(c) exactly when its largest size reaches c. A tau
  // above every size has no list (c = 0), and every vertex pads.
  const uint32_t c = it == lists_.sizes.end() ? 0 : *it;
  if (c != 0) {
    const size_t i = static_cast<size_t>(it - lists_.sizes.begin());
    const uint64_t end = std::min<uint64_t>(lists_.offsets[i] + k,
                                            lists_.offsets[i + 1]);
    for (uint64_t j = lists_.offsets[i]; j < end; ++j) {
      out.push_back(ScoredVertex{lists_.entries[j].e, lists_.entries[j].score});
    }
  }
  if (pad_with_zero_vertices) {
    for (VertexId v = 0; v < max_size_.size() && out.size() < k; ++v) {
      if (c == 0 || max_size_[v] < c) out.push_back(ScoredVertex{v, 0});
    }
  }
  return out;
}

}  // namespace esd::baselines
