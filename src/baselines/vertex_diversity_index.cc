#include "baselines/vertex_diversity_index.h"

#include <algorithm>

#include "graph/ego_net.h"
#include "util/binary_heap.h"
#include "util/flat_map.h"
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

VsdIndex::VsdIndex(const Graph& g) : n_(g.NumVertices()) {
  // Group vertices by max component size, sweep sizes descending, build
  // each list from one sorted run (mirrors EsdIndex::BulkLoad).
  std::vector<std::vector<uint32_t>> sizes(n_);
  std::map<uint32_t, uint32_t> owner_count;
  for (VertexId v = 0; v < n_; ++v) {
    sizes[v] = NeighborhoodComponentSizes(g, v);
    for (size_t i = 0; i < sizes[v].size(); ++i) {
      if (i > 0 && sizes[v][i] == sizes[v][i - 1]) continue;
      ++owner_count[sizes[v][i]];
    }
  }
  std::map<uint32_t, std::vector<VertexId>, std::greater<>> by_max;
  for (VertexId v = 0; v < n_; ++v) {
    if (!sizes[v].empty()) by_max[sizes[v].back()].push_back(v);
  }
  std::vector<uint32_t> all_c;
  for (const auto& [c, cnt] : owner_count) all_c.push_back(c);

  std::vector<VertexId> active;
  auto max_it = by_max.begin();
  std::vector<Entry> run;
  for (auto it = all_c.rbegin(); it != all_c.rend(); ++it) {
    uint32_t c = *it;
    while (max_it != by_max.end() && max_it->first >= c) {
      active.insert(active.end(), max_it->second.begin(),
                    max_it->second.end());
      ++max_it;
    }
    run.clear();
    for (VertexId v : active) {
      const auto& s = sizes[v];
      uint32_t score = static_cast<uint32_t>(
          s.end() - std::lower_bound(s.begin(), s.end(), c));
      run.push_back(Entry{score, v});
    }
    std::sort(run.begin(), run.end(),
              [](const Entry& a, const Entry& b) { return EntryLess()(a, b); });
    List list;
    list.BuildFromSorted(run);
    num_entries_ += list.size();
    lists_.emplace(c, std::move(list));
  }
}

std::vector<ScoredVertex> VsdIndex::Query(uint32_t k, uint32_t tau,
                                          bool pad_with_zero_vertices) const {
  std::vector<ScoredVertex> out;
  if (k == 0 || tau == 0) return out;
  auto it = lists_.lower_bound(tau);
  std::vector<VertexId> taken;
  if (it != lists_.end()) {
    it->second.ForEachInOrder([&](const Entry& entry) {
      if (out.size() >= k) return false;
      out.push_back(ScoredVertex{entry.v, entry.score});
      taken.push_back(entry.v);
      return true;
    });
  }
  if (pad_with_zero_vertices && out.size() < k) {
    util::FlatSet<VertexId> included(taken.size());
    for (VertexId v : taken) included.Insert(v);
    for (VertexId v = 0; v < n_ && out.size() < k; ++v) {
      if (!included.Contains(v)) out.push_back(ScoredVertex{v, 0});
    }
  }
  return out;
}

std::vector<uint32_t> VsdIndex::DistinctSizes() const {
  std::vector<uint32_t> out;
  for (const auto& [c, list] : lists_) out.push_back(c);
  return out;
}

}  // namespace esd::baselines
