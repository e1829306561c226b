#ifndef ESD_BASELINES_VERTEX_DIVERSITY_INDEX_H_
#define ESD_BASELINES_VERTEX_DIVERSITY_INDEX_H_

#include <cstdint>
#include <vector>

#include "baselines/vertex_diversity.h"
#include "core/frozen_index.h"
#include "graph/graph.h"
#include "obs/search_stats.h"

namespace esd::baselines {

/// Counters for the vertex online search — the same struct the edge
/// search reports (core::OnlineStats is this type too), so both
/// dequeue-twice searches share one set of field/metric names.
using VertexOnlineStats = obs::OnlineSearchStats;

/// Top-k *vertex* structural diversity via the dequeue-twice framework —
/// the problem of Huang et al. [2] / Chang et al. [4] that inspired the
/// paper, solved with the same machinery this library builds for edges.
/// Upper bound: ⌊d(v)/τ⌋. Returns min(k, n) vertices, descending score.
std::vector<ScoredVertex> OnlineVertexTopK(const graph::Graph& g, uint32_t k,
                                           uint32_t tau,
                                           VertexOnlineStats* stats = nullptr);

/// The vertex analogue of the ESDIndex: for every component size c
/// occurring in some vertex ego-network, a list H(c) of the vertices whose
/// neighborhood has a component of size >= c, ordered by the structural
/// diversity computed at threshold c. The index never changes after the
/// build, so it keeps the lists as flat slabs, like FrozenEsdIndex: a
/// query is one binary search plus a slab prefix, and the same Theorem-4
/// argument makes snapping tau up to the next occurring size exact. (The
/// paper leaves vertex indexing as context; we provide it to show the
/// ESDIndex design generalizes.)
class VsdIndex {
 public:
  /// Builds the index by computing every vertex's neighborhood components,
  /// laid out as flat H(c) slabs by core::LayOutLists (an entry's id field
  /// holds the vertex).
  explicit VsdIndex(const graph::Graph& g);

  /// Top-k vertex structural diversity query. Padding appends the vertices
  /// outside the answered list, ascending.
  std::vector<ScoredVertex> Query(uint32_t k, uint32_t tau,
                                  bool pad_with_zero_vertices = true) const;

  /// Distinct component sizes, ascending.
  std::vector<uint32_t> DistinctSizes() const { return lists_.sizes; }

  /// Total entries across all lists.
  uint64_t NumEntries() const { return lists_.entries.size(); }

 private:
  core::ListLayout lists_;
  std::vector<uint32_t> max_size_;  // by vertex; 0 when N(v) is empty
};

}  // namespace esd::baselines

#endif  // ESD_BASELINES_VERTEX_DIVERSITY_INDEX_H_
