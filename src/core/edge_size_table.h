#ifndef ESD_CORE_EDGE_SIZE_TABLE_H_
#define ESD_CORE_EDGE_SIZE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scorer.h"
#include "graph/graph.h"

namespace esd::core {

/// The edge registry plus each edge's component-size multiset C_e: the
/// part of the ESDIndex that Section V's maintenance repairs (Algorithms
/// 4-5 up to line 19), and everything Freeze (core/frozen_index.h) reads.
///
/// Edge ids are dense; freed ids are reused. EsdIndex derives from this
/// table and moves its H(c) lists inside its own SetEdgeSizes/BulkLoad, so
/// write an EsdIndex through the EsdIndex, never through a reference to
/// this base. The live writer keeps the table alone.
class EdgeSizeTable {
 public:
  /// Registers an edge and returns its dense id (freed ids are reused).
  graph::EdgeId RegisterEdge(graph::Edge uv);

  /// Unregisters `e`. Its size list must already be empty
  /// (SetEdgeSizes(e, {}) first).
  void UnregisterEdge(graph::EdgeId e);

  /// Endpoints of a registered edge.
  graph::Edge EdgeAt(graph::EdgeId e) const { return edges_[e]; }

  /// Number of live registered edges.
  size_t NumRegisteredEdges() const { return edges_.size() - free_ids_.size(); }

  /// Total edge-id slots, live and freed (ids are < EdgeSlotCount()).
  size_t EdgeSlotCount() const { return edges_.size(); }

  /// True if edge id `e` is currently registered.
  bool IsLive(graph::EdgeId e) const { return e < live_.size() && live_[e]; }

  /// Replaces edge e's component-size multiset with `sorted_sizes`
  /// (ascending).
  void SetEdgeSizes(graph::EdgeId e, std::vector<uint32_t> sorted_sizes);

  /// Edge ids 0..sizes.size()-1 are registered with the given endpoints and
  /// multisets (each ascending). Replaces current contents.
  void BulkLoad(std::vector<graph::Edge> edges,
                std::vector<std::vector<uint32_t>> sizes_per_edge);

  /// Component-size multiset of edge e (ascending).
  const std::vector<uint32_t>& EdgeSizes(graph::EdgeId e) const {
    return edge_sizes_[e];
  }

  /// Which diversity definition the stored value multisets follow. The
  /// table itself is scorer-agnostic (any sorted multiset per edge); the
  /// kind is a label the builders stamp so serialization and the live
  /// stack can refuse cross-scorer mixing.
  ScorerKind Scorer() const { return scorer_kind_; }

  /// Stamps the scorer label (builders and loaders only; does not touch
  /// the stored multisets).
  void SetScorerKind(ScorerKind kind) { scorer_kind_ = kind; }

 private:
  std::vector<std::vector<uint32_t>> edge_sizes_;  // by EdgeId
  std::vector<graph::Edge> edges_;                 // by EdgeId
  std::vector<graph::EdgeId> free_ids_;
  std::vector<uint8_t> live_;  // by EdgeId
  ScorerKind scorer_kind_ = ScorerKind::kEsd;
};

}  // namespace esd::core

#endif  // ESD_CORE_EDGE_SIZE_TABLE_H_
