#ifndef ESD_UTIL_DSU_H_
#define ESD_UTIL_DSU_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/run_pool.h"

namespace esd::util {

/// Root flag of a disjoint-set parent word. A member's word is its parent's
/// slot index, or kDsuRoot | component size at a root; slot indices and
/// sizes stay below the flag.
inline constexpr uint32_t kDsuRoot = 1u << 31;

/// Root slot of slot s, with path halving. `words[i]` is slot i's parent
/// word: a uint32_t array, or a view that yields each slot's word.
template <typename Words>
inline uint32_t DsuFind(Words&& words, uint32_t s) {
  uint32_t p;
  while (((p = words[s]) & kDsuRoot) == 0) {
    const uint32_t gp = words[p];
    if ((gp & kDsuRoot) != 0) return p;
    words[s] = gp;  // path halving
    s = gp;
  }
  return s;
}

/// Merges the sets of slots a and b, union by size (on a tie a's root stays
/// the root); returns true if they differed. O(γ(n)) amortized, the inverse
/// Ackermann function of the paper's complexity analysis.
template <typename Words>
inline bool DsuUnion(Words&& words, uint32_t a, uint32_t b) {
  uint32_t ra = DsuFind(words, a);
  uint32_t rb = DsuFind(words, b);
  if (ra == rb) return false;
  if (words[ra] < words[rb]) std::swap(ra, rb);  // kDsuRoot | size
  words[ra] += words[rb] & ~kDsuRoot;
  words[rb] = ra;
  return true;
}

/// Disjoint-set union keyed by sparse vertex ids — the paper's per-edge
/// structure `M_uv` (Algorithm 3, lines 1-4): each common neighbor of the
/// edge's endpoints is a member, each set is one connected component of the
/// edge ego-network, and every root carries the component's size ("count").
///
/// A KeyedDsu is a handle on one run of a KeyedDsuPool: 8-byte slots,
/// sorted by vertex. A member is found by binary search, and its parent
/// word indexes the run (DsuFind / DsuUnion). Adding or removing a member
/// renumbers the words of this one run, O(members); a removed member leaves
/// nothing behind, so the run follows the members present, not every
/// vertex ever added. Handles stay valid while the pool lives; the slot
/// indices of SlotOf hold until a member is added or removed.
///
/// Members can be added and removed dynamically, which the maintenance
/// algorithms (Algorithms 4 and 5) rely on. Removal is restricted to
/// singletons or whole components, matching how the paper's Deletion
/// algorithm rebuilds affected components.
class KeyedDsu {
 public:
  /// A member and its parent word.
  struct Slot {
    uint32_t vertex;
    uint32_t parent;  // slot index, or kDsuRoot | size at a root
  };

  /// Adds `v` as a new singleton component; returns false if already present.
  bool AddMember(uint32_t v);

  /// Adds each vertex of `vs` as a new singleton component. `vs` is
  /// ascending, holds no member and does not point into the pool. One pass
  /// over the slots, so O(members · log |vs| + |vs|) in all.
  void AddMembers(std::span<const uint32_t> vs);

  /// True if `v` is a member.
  bool Contains(uint32_t v) const;

  /// Representative vertex of v's component. `v` must be a member.
  uint32_t Find(uint32_t v);

  /// Merges the components of `a` and `b`; returns true if they differed.
  /// Both must be members.
  bool Union(uint32_t a, uint32_t b) {
    return UnionSlots(SlotOf(a), SlotOf(b));
  }

  /// Index of member v's slot.
  uint32_t SlotOf(uint32_t v) const;

  /// Union of the members in slots a and b: Union without the searches.
  bool UnionSlots(uint32_t a, uint32_t b) {
    return DsuUnion(Words{slots().data()}, a, b);
  }

  /// Size of the component containing `v`. `v` must be a member.
  uint32_t ComponentSize(uint32_t v);

  /// True if members `a` and `b` share a component.
  bool Same(uint32_t a, uint32_t b) { return Find(a) == Find(b); }

  /// Total members across all components.
  size_t NumMembers() const { return slots().size(); }

  /// Number of components.
  size_t NumComponents() const;

  /// Removes every member.
  void Clear();

  /// Removes `v` if it is a singleton component; returns false otherwise
  /// (including when `v` is not a member).
  bool RemoveSingleton(uint32_t v);

  /// Replaces `*out` with the member vertices of v's component, ascending.
  /// `v` must be a member.
  void ComponentMembers(uint32_t v, std::vector<uint32_t>* out);

  /// Removes v's entire component (all its members). `v` must be a member.
  void RemoveComponent(uint32_t v);

  /// Invokes fn(root_vertex, component_size) for every component, in
  /// vertex order of the roots.
  template <typename Fn>
  void ForEachComponent(Fn&& fn) const {
    for (const Slot& s : slots()) {
      if ((s.parent & kDsuRoot) != 0) fn(s.vertex, s.parent & ~kDsuRoot);
    }
  }

  /// Invokes fn(vertex) for every member, ascending.
  template <typename Fn>
  void ForEachMember(Fn&& fn) const {
    for (const Slot& s : slots()) fn(s.vertex);
  }

  /// Replaces `*out` with the sorted (ascending) component sizes — the
  /// paper's `C_uv` with multiplicities.
  void ComponentSizes(std::vector<uint32_t>* out) const;

 private:
  friend class KeyedDsuPool;
  KeyedDsu(RunPool<Slot>* runs, size_t run) : runs_(runs), run_(run) {}

  // The slots' parent words, as DsuFind and DsuUnion index them.
  struct Words {
    Slot* slots;
    uint32_t& operator[](uint32_t i) const { return slots[i].parent; }
  };

  std::span<Slot> slots() const { return runs_->Mutable(run_); }
  /// Index of the first slot whose vertex is not below v.
  size_t LowerBound(uint32_t v) const;
  uint32_t FindSlot(uint32_t i) { return DsuFind(Words{slots().data()}, i); }

  RunPool<Slot>* runs_;
  size_t run_;
};

/// Every edge's M_e in one RunPool of 8-byte KeyedDsu::Slots: the live
/// writer's disjoint sets, indexed by edge id. The build writes it in one
/// pass over its arena (EdgeDsuArena::ExportDsus); afterwards each edge's
/// structure is reached through a KeyedDsu handle.
class KeyedDsuPool {
 public:
  using Slot = KeyedDsu::Slot;

  KeyedDsuPool() = default;

  /// `n` empty structures.
  explicit KeyedDsuPool(size_t n) { Resize(n); }

  /// Replaces the contents with offsets.size() - 1 structures: e's slots
  /// are slots[offsets[e] .. offsets[e+1]), sorted by vertex, no vertex
  /// twice, and each word a slot index into e's own run or kDsuRoot | size,
  /// forming a valid forest.
  template <typename Offset>
  void Adopt(std::span<const Offset> offsets, std::vector<Slot> slots) {
    runs_.Adopt(offsets, std::move(slots));
  }

  /// Number of structures.
  size_t size() const { return runs_.NumRuns(); }

  /// Grows to `n` structures; the new ones are empty.
  void Resize(size_t n) {
    while (runs_.NumRuns() < n) runs_.AddRun();
  }

  /// Handle on structure e.
  KeyedDsu operator[](size_t e) { return KeyedDsu(&runs_, e); }

  /// Structure e's slots, sorted by vertex.
  std::span<const Slot> Slots(size_t e) const { return runs_.Run(e); }

  /// Members over all structures.
  size_t TotalMembers() const { return runs_.LiveEntries(); }

  /// Compaction passes of the slot pool so far.
  uint64_t Compactions() const { return runs_.Compactions(); }

  /// Bytes of the slot pool and its run table.
  size_t MemoryBytes() const { return runs_.MemoryBytes(); }

 private:
  RunPool<Slot> runs_;
};

}  // namespace esd::util

#endif  // ESD_UTIL_DSU_H_
