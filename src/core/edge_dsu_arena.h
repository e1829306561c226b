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
/// scale. This arena lays every edge's member list (its common
/// neighborhood) in one CSR-style buffer with a parallel parent array.
/// Union and Find use path halving + union by size, exactly like KeyedDsu;
/// a root's parent entry holds kRoot | its component size.
///
/// The slice of an edge a→b of the degree-ordered DAG has three sections,
/// each in ascending vertex id:
///   upper  N+(a) ∩ N+(b)          (triangles (a, b, w))
///   middle {w : a→w→b}            (triangles (a, w, b))
///   lower  {w : w→a, w→b}         (triangles (w, a, b))
/// Triangles are numbered in u-major listing order (ForEachTriangleOfVertex
/// over u = 0..n-1), so triangle ids of u are FirstTriangle(first out-edge
/// of u) plus the index in u's listing — the 4-clique kernel's local arc
/// index. Each triangle records its slot in each of its three edges, so the
/// 4-clique stage finds a member by an array read instead of a search.
///
/// Slices of different edges are disjoint, so a pooled build may
/// process different edges concurrently as long as it serializes unions on
/// the *same* edge (striped locks).
class EdgeDsuArena {
 public:
  /// A triangle (u, v, w), u ≺ v ≺ w: w's slot in uv's upper section, v's
  /// in uw's middle section and u's in vw's lower section.
  struct TriangleSlots {
    uint32_t uv, uw, vw;
  };

  /// Root flag in the parent array; slots, triangle ids and component sizes
  /// all stay below it.
  static constexpr uint32_t kRoot = 1u << 31;

  /// Largest total membership (3 × triangles) the slot width holds.
  static constexpr uint64_t kMaxSlots = kRoot - 1;

  /// Throws std::length_error if `total` memberships do not fit the slot
  /// width. The constructor calls it after counting, before allocating.
  static void CheckSlotCount(uint64_t total);

  /// Builds member slices for every edge of the DAG's graph — lines 1-4 of
  /// Algorithm 3 — from two triangle listings, O(αm): a count pass sizes
  /// every section, a scatter pass writes each triangle's three opposite
  /// vertices in listing order, which is already ascending id order within
  /// each section. If `pool` is non-null both listings run on it; lower
  /// sections, which several vertices' listings write, are then sorted back
  /// into triangle order, so the result equals the serial arena slot for
  /// slot.
  explicit EdgeDsuArena(const graph::DegreeOrderedDag& dag,
                        util::ThreadPool* pool = nullptr);

  /// Number of edges covered.
  size_t NumEdges() const { return offsets_.size() - 1; }

  /// Total members across all edges — the paper's O(αm) bound.
  size_t TotalMembers() const { return members_.size(); }

  /// Number of triangles of the graph.
  size_t NumTriangles() const { return tri_.size(); }

  /// Members (common neighborhood) of edge e: upper, middle and lower
  /// sections in turn.
  std::span<const graph::VertexId> Members(graph::EdgeId e) const {
    return {members_.data() + offsets_[e], members_.data() + offsets_[e + 1]};
  }

  /// Size of edge e's upper section.
  uint32_t UpperSize(graph::EdgeId e) const { return upper_[e]; }

  /// Id of the first triangle (a, b, ·) of edge e = a→b; for the first
  /// out-edge of a vertex, the id of the vertex's first triangle.
  uint32_t FirstTriangle(graph::EdgeId e) const { return first_[e]; }

  /// Absolute slot of member index i of edge e (Members(e)[i]).
  uint32_t Slot(graph::EdgeId e, uint32_t i) const { return offsets_[e] + i; }

  /// Slots of triangle t in its three edges.
  const TriangleSlots& SlotsOf(uint32_t t) const { return tri_[t]; }

  /// Id of triangle (a, b, w) for e = a→b; w must be in e's upper section,
  /// and at or after index `*cursor` of it. Gallops from `*cursor` and
  /// leaves it at w's index, so ascending lookups in one section share it.
  uint32_t UpperTriangle(graph::EdgeId e, graph::VertexId w,
                         uint32_t* cursor) const;

  /// Merges the components of slots a and b, which lie in the same edge's
  /// slice.
  void Union(uint32_t a, uint32_t b);

  /// Sorted component sizes of edge e's ego-network (the paper's C_uv).
  std::vector<uint32_t> ComponentSizes(graph::EdgeId e) const;

  /// Every edge's component sizes, packed as CSR (lines 16-23, first
  /// half). If `pool` is non-null the per-edge extraction runs on it.
  EdgeSizePool ComponentSizePool(util::ThreadPool* pool = nullptr) const;

  /// Converts edge e's structure to a standalone KeyedDsu with the same
  /// components (used to bootstrap the dynamic index). Members are added,
  /// then united with their roots, in ascending id order.
  util::KeyedDsu ToKeyedDsu(graph::EdgeId e);

  /// Heap bytes of the arena's tables.
  size_t MemoryBytes() const;

 private:
  uint32_t FindSlot(uint32_t s);
  /// Number of components (roots) in edge e's slice.
  uint32_t NumComponents(graph::EdgeId e) const;
  /// Writes edge e's component sizes, ascending, to out[0..NumComponents).
  void WriteComponentSizes(graph::EdgeId e, uint32_t* out) const;

  std::vector<uint32_t> offsets_;          // size m+1
  std::vector<uint32_t> upper_;            // upper section size per edge
  std::vector<uint32_t> first_;            // first triangle id per edge
  std::vector<graph::VertexId> members_;   // three sections per edge slice
  std::vector<uint32_t> parent_;           // slot, or kRoot | size at roots
  std::vector<TriangleSlots> tri_;         // per triangle, u-major order
};

}  // namespace esd::core

#endif  // ESD_CORE_EDGE_DSU_ARENA_H_
