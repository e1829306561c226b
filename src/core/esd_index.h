#ifndef ESD_CORE_ESD_INDEX_H_
#define ESD_CORE_ESD_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/edge_size_table.h"
#include "core/frozen_index.h"
#include "core/query_engine.h"
#include "core/topk_result.h"
#include "graph/graph.h"
#include "util/treap.h"

namespace esd::core {

/// The ESDIndex structure of Section IV-A.
///
/// For every component size c occurring in some edge ego-network (the set
/// C), the index keeps a list H(c) of all edges whose ego-network has a
/// component of size >= c, ordered by the structural diversity computed at
/// threshold c (descending). Each H(c) is a treap, the paper's
/// "self-balance binary search tree".
///
/// The class is also the mutation substrate of the dynamic engine's
/// maintenance (Section V, lines 20-22 of Algorithms 4-5): on top of the
/// edge registry and multisets C_e of its EdgeSizeTable base,
/// SetEdgeSizes() atomically moves the edge's entries across all affected
/// lists, creating brand-new H(c) lists by cloning the next larger list
/// (see DESIGN.md §3 for why the clone is exact) and dropping lists whose
/// size value disappears from the graph.
///
/// Invariant (checked by tests): for every c in C,
///   H(c) = { (score_c(e), e) : max(C_e) >= c },  score_c(e) = |{s in C_e :
///   s >= c}|,
/// and C = { s : some edge has a component of size s }.
///
/// For serving-only deployments, Freeze() (core/frozen_index.h) converts
/// this structure into the flat, read-optimized FrozenEsdIndex; both
/// implement the EsdQueryEngine interface with identical query semantics.
class EsdIndex : public EsdQueryEngine, public EdgeSizeTable {
 public:
  using Entry = ListEntry;
  using List = util::Treap<ListEntry, ListOrder>;

  EsdIndex() = default;

  // ---- Construction / maintenance ----------------------------------------
  // The edge registry and C_e come from EdgeSizeTable; these two writers
  // hide its own so every C_e change also moves the edge's H entries.

  /// Replaces edge e's component-size multiset with `sorted_sizes`
  /// (ascending) and updates every affected H(c) list. O(|C_e| log m)
  /// amortized, plus clone cost when a never-before-seen size appears.
  void SetEdgeSizes(graph::EdgeId e, std::span<const uint32_t> sorted_sizes);

  /// Bulk construction: edge ids 0..edges.size()-1 are registered with the
  /// given endpoints and multisets, and each H(c) treap is built in O(|H(c)|)
  /// from its slab in LayOutLists' layout. Replaces current contents. The
  /// dynamic engine's bootstrap; the builders go through Thaw.
  void BulkLoad(std::vector<graph::Edge> edges, EdgeSizePool sizes);

  // ---- Query ---------------------------------------------------------------

  /// Top-k structural diversity query (Section IV-B): finds the smallest
  /// c* >= tau in C and reports the first k entries of H(c*).
  /// O(k log m + log n).
  ///
  /// If fewer than k edges have positive score and `pad_with_zero_edges` is
  /// true, zero-score live edges fill the remainder in ascending edge-id
  /// order, skipping edges already reported — a documented deterministic
  /// order (parity with the online algorithms, which always return
  /// min(k, m) edges, and with FrozenEsdIndex, which pads identically so
  /// engine-parity tests can compare exact results).
  TopKResult Query(uint32_t k, uint32_t tau,
                   bool pad_with_zero_edges = true) const override;

  /// Score of edge `e` at threshold tau, from the stored multiset. O(log).
  uint32_t ScoreOf(graph::EdgeId e, uint32_t tau) const override;

  // ---- Introspection -------------------------------------------------------

  /// Distinct component sizes C, ascending.
  std::vector<uint32_t> DistinctSizes() const;

  /// Number of sorted lists |C|.
  size_t NumLists() const { return lists_.size(); }

  /// Total entries across all lists — the paper's O(αm) index size.
  uint64_t NumEntries() const { return num_entries_; }

  /// Approximate resident bytes of the index payload (list nodes + stored
  /// size multisets), the quantity plotted in Fig. 6(a).
  uint64_t MemoryBytes() const override;

  /// Engine selector key for this implementation.
  std::string_view EngineName() const override { return "treap"; }

  /// Work counters: queries answered, H-list lower_bound searches, and
  /// entries walked to build answers.
  EngineCounters Counters() const override { return counters_.Snap(); }

  ScorerKind Scorer() const override { return EdgeSizeTable::Scorer(); }

  /// Invokes fn(c, list) for every list, ascending c.
  template <typename Fn>
  void ForEachList(Fn&& fn) const {
    for (const auto& [c, list] : lists_) fn(c, list);
  }

 private:
  friend EsdIndex Thaw(const FrozenEsdIndex& frozen);

  /// Builds every H(c) treap from its slab of a layout of the table's
  /// multisets (C, slab offsets, canonical entries) and counts each size's
  /// owners in one pass over the multisets.
  void BuildLists(std::span<const uint32_t> sizes,
                  std::span<const uint64_t> offsets,
                  std::span<const ListEntry> entries);
  void RemoveEntries(graph::EdgeId e, std::span<const uint32_t> sizes);
  void InsertEntries(graph::EdgeId e, std::span<const uint32_t> sizes);

  std::map<uint32_t, List> lists_;
  // Number of edges owning at least one component of size c; a list lives
  // iff its counter is positive.
  std::map<uint32_t, uint32_t> size_owner_count_;
  uint64_t num_entries_ = 0;
  EngineCounterBlock counters_;
};

}  // namespace esd::core

#endif  // ESD_CORE_ESD_INDEX_H_
