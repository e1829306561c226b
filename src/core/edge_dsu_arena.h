#ifndef ESD_CORE_EDGE_DSU_ARENA_H_
#define ESD_CORE_EDGE_DSU_ARENA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/scorer.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "util/dsu.h"
#include "util/thread_pool.h"

namespace esd::core {

/// All per-edge disjoint-set structures M_uv of Algorithm 3, packed into
/// one arena.
///
/// A per-edge hash-map DSU (util::KeyedDsu) costs several allocations per
/// edge — measurably the dominant cost of index construction at laptop
/// scale. This arena lays every edge's member list (its sorted common
/// neighborhood) in one CSR-style buffer with parallel parent/count arrays;
/// vertex→slot resolution is a binary search in the edge's slice. Union
/// and Find use path halving + union by size, exactly like KeyedDsu.
///
/// Slices of different edges are disjoint, so a pooled build may
/// process different edges concurrently as long as it serializes unions on
/// the *same* edge (striped locks).
class EdgeDsuArena {
 public:
  /// Builds member slices for every edge of the DAG's graph — lines 1-4 of
  /// Algorithm 3 — from two triangle listings, O(αm): a count pass sizes
  /// every slice, a scatter pass writes each triangle's third vertex into
  /// its three edges' slices, then each slice is sorted. If `pool` is
  /// non-null both listings and the sorts run on it; the sort makes the
  /// result independent of thread interleaving.
  explicit EdgeDsuArena(const graph::DegreeOrderedDag& dag,
                        util::ThreadPool* pool = nullptr);

  /// Number of edges covered.
  size_t NumEdges() const { return offsets_.size() - 1; }

  /// Total members across all edges — the paper's O(αm) bound.
  size_t TotalMembers() const { return members_.size(); }

  /// Sorted members (common neighborhood) of edge e.
  std::span<const graph::VertexId> Members(graph::EdgeId e) const {
    return {members_.data() + offsets_[e], members_.data() + offsets_[e + 1]};
  }

  /// Merges the components of vertices a and b in edge e's structure.
  /// Both must be members of e's common neighborhood.
  void Union(graph::EdgeId e, graph::VertexId a, graph::VertexId b);

  /// Sorted component sizes of edge e's ego-network (the paper's C_uv).
  std::vector<uint32_t> ComponentSizes(graph::EdgeId e) const;

  /// Every edge's component sizes, packed as CSR (lines 16-23, first
  /// half). If `pool` is non-null the per-edge extraction runs on it.
  EdgeSizePool ComponentSizePool(util::ThreadPool* pool = nullptr) const;

  /// Converts edge e's structure to a standalone KeyedDsu with the same
  /// components (used to bootstrap the dynamic index).
  util::KeyedDsu ToKeyedDsu(graph::EdgeId e);

 private:
  uint32_t SlotOf(graph::EdgeId e, graph::VertexId w) const;
  uint32_t FindSlot(uint32_t s);
  /// Number of components (roots) in edge e's slice.
  uint32_t NumComponents(graph::EdgeId e) const;
  /// Writes edge e's component sizes, ascending, to out[0..NumComponents).
  void WriteComponentSizes(graph::EdgeId e, uint32_t* out) const;

  std::vector<uint64_t> offsets_;          // size m+1
  std::vector<graph::VertexId> members_;   // sorted per edge slice
  std::vector<uint32_t> parent_;           // absolute slot indices
  std::vector<uint32_t> count_;            // component size at roots
};

}  // namespace esd::core

#endif  // ESD_CORE_EDGE_DSU_ARENA_H_
