#ifndef ESD_CORE_EDGE_SIZE_TABLE_H_
#define ESD_CORE_EDGE_SIZE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/scorer.h"
#include "graph/graph.h"
#include "util/run_pool.h"

namespace esd::core {

/// The edge registry plus each edge's component-size multiset C_e: the
/// part of the ESDIndex that Section V's maintenance repairs (Algorithms
/// 4-5 up to line 19), and everything Freeze (core/frozen_index.h) reads.
///
/// Edge ids are dense; freed ids are reused. The multisets share one
/// util::RunPool, one run per slot, so a bulk load adopts a CSR size pool
/// (a build's, or a frozen image's) in a block, and a rewrite allocates
/// nothing per edge. EsdIndex derives from this
/// table and moves its H(c) lists inside its own SetEdgeSizes/BulkLoad, so
/// write an EsdIndex through the EsdIndex, never through a reference to
/// this base. The live writer keeps the table alone, with its change log
/// on: the record of which slots were written since a given epoch, so
/// that epoch's successor is rebuilt from those slots alone.
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

  /// Every slot's endpoints and whether it is in use, by EdgeId.
  std::span<const graph::Edge> Edges() const { return edges_; }
  std::span<const uint8_t> LiveMask() const { return live_; }

  /// Replaces edge e's component-size multiset with `sorted_sizes`
  /// (ascending), which must not point into the table.
  void SetEdgeSizes(graph::EdgeId e, std::span<const uint32_t> sorted_sizes);

  /// Replaces the contents with slots 0..edges.size()-1: their endpoints,
  /// their multisets (CSR: slot e's, ascending, is sizes.values[
  /// sizes.offsets[e] .. sizes.offsets[e+1]), taken over as the table's
  /// pool) and, unless `live` is empty, which slots are in use (a freed
  /// slot's multiset is empty). Freed ids are left ascending, so
  /// RegisterEdge reuses the highest first.
  void BulkLoad(std::vector<graph::Edge> edges, EdgeSizePool sizes,
                std::vector<uint8_t> live = {});

  /// Component-size multiset of edge e (ascending). Invalidated by the
  /// next write to the table.
  std::span<const uint32_t> EdgeSizes(graph::EdgeId e) const {
    return sizes_.Run(e);
  }

  /// The multisets' pool (introspection: live and dead entries,
  /// compactions, bytes).
  const util::RunPool<uint32_t>& SizePool() const { return sizes_; }

  /// Which diversity definition the stored value multisets follow. The
  /// table itself is scorer-agnostic (any sorted multiset per edge); the
  /// kind is a label the builders stamp so serialization and the live
  /// stack can refuse cross-scorer mixing.
  ScorerKind Scorer() const { return scorer_kind_; }

  /// Stamps the scorer label (builders and loaders only; does not touch
  /// the stored multisets).
  void SetScorerKind(ScorerKind kind) { scorer_kind_ = kind; }

  // ---- Change log ------------------------------------------------------------
  // Off by default. Once enabled, every slot written by RegisterEdge,
  // UnregisterEdge or a SetEdgeSizes that changes the multiset is appended;
  // positions are a monotone write count. The log never holds more entries
  // than the table has slots: past that it is dropped, and every position
  // before the drop reads as unavailable.

  /// Starts logging at position ChangeLogEnd().
  void EnableChangeLog() { log_enabled_ = true; }

  /// Position just past the newest logged write.
  uint64_t ChangeLogEnd() const { return log_end_; }

  /// Appends the slots written at positions [from, ChangeLogEnd()) to
  /// *slots (in write order, repeats included) and returns true, or
  /// returns false when part of that range was trimmed or dropped.
  bool ChangedSince(uint64_t from, std::vector<graph::EdgeId>* slots) const;

  /// Forgets the writes before position `upto`.
  void TrimChangeLog(uint64_t upto);

 private:
  void LogWrite(graph::EdgeId e);

  util::RunPool<uint32_t> sizes_;   // C_e, one run per EdgeId
  std::vector<graph::Edge> edges_;  // by EdgeId
  std::vector<graph::EdgeId> free_ids_;
  std::vector<uint8_t> live_;  // by EdgeId
  ScorerKind scorer_kind_ = ScorerKind::kEsd;
  bool log_enabled_ = false;
  std::vector<graph::EdgeId> log_;  // positions [log_end_ - size, log_end_)
  uint64_t log_end_ = 0;
};

}  // namespace esd::core

#endif  // ESD_CORE_EDGE_SIZE_TABLE_H_
