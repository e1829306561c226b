#ifndef ESD_CORE_EDGE_DSU_ARENA_H_
#define ESD_CORE_EDGE_DSU_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/scorer.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "util/dsu.h"
#include "util/page_allocator.h"
#include "util/thread_pool.h"

namespace esd::core {

/// A 4-clique {u, v, w1, w2}, u ≺ v ≺ w1 ≺ w2, with the ids of its six
/// edges and the arena ids of three of its four triangles: (u, v, w1),
/// (u, v, w2) and (u, w1, w2).
struct FourClique {
  graph::VertexId u, v, w1, w2;
  graph::EdgeId uv, uw1, uw2, vw1, vw2, w1w2;
  uint32_t uvw1, uvw2, uw1w2;
};

/// All per-edge disjoint-set structures M_uv of Algorithm 3, packed into
/// one arena.
///
/// One allocation per table instead of one per edge: this arena lays every
/// edge's member list (its common neighborhood) in one CSR-style buffer
/// with a parallel parent array, whose words index the whole buffer. Union
/// and Find are util/dsu.h's DsuUnion and DsuFind, the kernel the live
/// writer's util::KeyedDsuPool runs too; a root's parent word holds
/// kRoot | its component size.
///
/// The slice of an edge a→b of the degree-ordered DAG has three sections,
/// each in ascending vertex id:
///   upper  N+(a) ∩ N+(b)          (triangles (a, b, w))
///   middle {w : a→w→b}            (triangles (a, w, b))
///   lower  {w : w→a, w→b}         (triangles (w, a, b))
/// Triangles are numbered in u-major listing order (ForEachTriangleOfVertex
/// over u = 0..n-1), so the triangles (a, b, ·) of arc a→b are
/// FirstTriangle(a→b) plus their index in its upper section. Each triangle
/// records its slot in each of its three edges, so the 4-clique stage finds
/// a member by an array read instead of a search.
///
/// The upper sections are the 4-clique stage's input too: the upper
/// section of a→b is the out-list of b in the sub-DAG induced on N+(a), so
/// ForEach4CliqueOfVertex walks them instead of listing triangles again.
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
  static constexpr uint32_t kRoot = util::kDsuRoot;

  /// Largest total membership (3 × triangles) the slot width holds.
  static constexpr uint64_t kMaxSlots = kRoot - 1;

  /// Throws std::length_error if `total` memberships do not fit the slot
  /// width. The constructor calls it after the listing, before allocating
  /// any slot-sized table.
  static void CheckSlotCount(uint64_t total);

  /// Scratch for ForEach4CliqueOfVertex, sized once from the DAG so the
  /// enumeration never allocates; one instance per thread.
  class CliqueScratch {
   public:
    explicit CliqueScratch(const graph::DegreeOrderedDag& dag)
        : at_(dag.NumVertices()) {}

   private:
    friend class EdgeDsuArena;
    // Per vertex w while u is enumerated: `arc`, w's index in N+(u) (set
    // for N+(u) only, never cleared); `pos`, 1 + w's index in the upper
    // section of the arc being closed, 0 if absent.
    struct At {
      uint32_t arc = 0, pos = 0;
    };
    std::vector<At> at_;
  };

  /// Builds member slices for every edge of the DAG's graph — lines 1-4 of
  /// Algorithm 3 — from one triangle listing, O(αm). The listing counts
  /// every section and records each triangle as (index of v in N+(u),
  /// index of w in N+(u), edge v→w); the records form the triangle table,
  /// in u-major order. After the prefix sum a linear sweep over that table
  /// writes each triangle's three opposite vertices — listing order is
  /// already ascending id order within each section — and turns its entry
  /// into its slots in place. If `pool` is non-null the listing and the
  /// sweep run on it in vertex chunks; lower sections, which several chunks
  /// write, are then sorted back into triangle order, so the result equals
  /// the serial arena slot for slot.
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

  /// Edge v→w of triangle t = (u, v, w). Available until
  /// ReleaseCliqueTables().
  graph::EdgeId TriangleEdgeVW(uint32_t t) const { return tri_vw_[t]; }

  /// Frees the table only the 4-clique stage reads (TriangleEdgeVW).
  void ReleaseCliqueTables() { tri_vw_ = {}; }

  /// Enumerates the 4-cliques whose two lowest-ranked vertices are u and
  /// an out-neighbor v = OutNeighbors(u)[i], for every i in [lo, hi) (`hi`
  /// is clamped to the out-degree), off the arena's upper sections: the
  /// upper section of u→v is L(v), the out-list of v in the sub-DAG induced
  /// on N+(u), so stamping it and walking L(w1) = upper(u→w1) for each of
  /// its members w1 finds every w2 that closes {u, v, w1, w2}. That costs
  /// d+(u) stamps per call plus |L(v)| + Σ_{w1∈L(v)} |L(w1)| per arc, and
  /// no triangle is listed. (u, v, w1) and (u, v, w2) are FirstTriangle(uv)
  /// plus w1's and w2's indices in L(v), (u, w1, w2) is FirstTriangle(uw1)
  /// plus w2's index in L(w1); the edges v→w1, v→w2 and w1→w2 are those
  /// triangles' TriangleEdgeVW.
  ///
  /// Cliques come out arc by arc in id order of v, then of w1, then of w2.
  /// The union over all vertices (or over any cover of each vertex's arcs
  /// by disjoint ranges) yields each 4-clique of the graph exactly once, so
  /// the pooled build splits the enumeration by vertex or by (u, arc range)
  /// runs. `dag` is the DAG the arena was built from; `fn` takes (const
  /// FourClique&) and may Union() on this arena.
  template <typename Fn>
  void ForEach4CliqueOfVertex(const graph::DegreeOrderedDag& dag,
                              graph::VertexId u, CliqueScratch* scratch,
                              Fn&& fn, uint32_t lo = 0,
                              uint32_t hi = UINT32_MAX) const;

  /// Merges the components of slots a and b, which lie in the same edge's
  /// slice.
  void Union(uint32_t a, uint32_t b);

  /// Sorted component sizes of edge e's ego-network (the paper's C_uv).
  std::vector<uint32_t> ComponentSizes(graph::EdgeId e) const;

  /// Every edge's component sizes, packed as CSR (lines 16-23, first
  /// half). If `pool` is non-null the per-edge extraction runs on it.
  EdgeSizePool ComponentSizePool(util::ThreadPool* pool = nullptr) const;

  /// Replaces *out with every edge's slice as its M_e, with the same
  /// components and the same roots (how the live writer and the dynamic
  /// index boot): one pass over the slices, each one's three sections
  /// merged into member order and each member's word pointing straight at
  /// its root's new position. The pool's runs take the arena's offsets. If
  /// `pool` is non-null the slices are split over it.
  void ExportDsus(util::KeyedDsuPool* out, util::ThreadPool* pool = nullptr);

  /// Bytes of the arena's tables. Of the triangle table only the
  /// triangles count, not the rest of the listing's reservation.
  size_t MemoryBytes() const;

 private:
  /// Number of components (roots) in edge e's slice.
  uint32_t NumComponents(graph::EdgeId e) const;
  /// Writes edge e's component sizes, ascending, to out[0..NumComponents).
  void WriteComponentSizes(graph::EdgeId e, uint32_t* out) const;

  std::vector<uint32_t> offsets_;          // size m+1
  std::vector<uint32_t> upper_;            // upper section size per edge
  std::vector<uint32_t> first_;            // first triangle id per edge
  std::vector<graph::VertexId> members_;   // three sections per edge slice
  std::vector<uint32_t> parent_;           // slot, or kRoot | size at roots
  // Per triangle, u-major order; page-mapped, as the listing sizes it to
  // a bound on the triangle count.
  std::vector<TriangleSlots, util::PageAllocator<TriangleSlots>> tri_;
  std::vector<graph::EdgeId> tri_vw_;      // per triangle, edge v→w
};

template <typename Fn>
void EdgeDsuArena::ForEach4CliqueOfVertex(const graph::DegreeOrderedDag& dag,
                                          graph::VertexId u,
                                          CliqueScratch* scratch, Fn&& fn,
                                          uint32_t lo, uint32_t hi) const {
  auto nu = dag.OutNeighbors(u);
  auto eu = dag.OutEdges(u);
  const auto d = static_cast<uint32_t>(nu.size());
  hi = std::min(hi, d);
  // v, w1 and w2 all lie in N+(u).
  if (d < 3 || lo >= hi) return;

  std::vector<CliqueScratch::At>& at = scratch->at_;
  for (uint32_t i = 0; i < d; ++i) at[nu[i]].arc = i;
  for (uint32_t i = lo; i < hi; ++i) {
    const graph::EdgeId uv = eu[i];
    const uint32_t size = upper_[uv];
    if (size < 2) continue;
    const graph::VertexId* lv = members_.data() + offsets_[uv];
    const uint32_t t0 = first_[uv];
    for (uint32_t p = 0; p < size; ++p) at[lv[p]].pos = p + 1;
    for (uint32_t p = 0; p < size; ++p) {
      const graph::VertexId w1 = lv[p];
      const graph::EdgeId uw1 = eu[at[w1].arc];
      const graph::VertexId* lw1 = members_.data() + offsets_[uw1];
      const uint32_t size1 = upper_[uw1];
      const uint32_t t1 = first_[uw1];
      for (uint32_t q = 0; q < size1; ++q) {
        const graph::VertexId w2 = lw1[q];
        const uint32_t s = at[w2].pos;
        if (s == 0) continue;
        const uint32_t p2 = s - 1;
        fn(FourClique{u, nu[i], w1, w2, uv, uw1, eu[at[w2].arc],
                      tri_vw_[t0 + p], tri_vw_[t0 + p2], tri_vw_[t1 + q],
                      t0 + p, t0 + p2, t1 + q});
      }
    }
    for (uint32_t p = 0; p < size; ++p) at[lv[p]].pos = 0;
  }
}

}  // namespace esd::core

#endif  // ESD_CORE_EDGE_DSU_ARENA_H_
