#ifndef ESD_CORE_DYNAMIC_INDEX_H_
#define ESD_CORE_DYNAMIC_INDEX_H_

#include <cstdint>

#include "core/esd_index.h"
#include "core/maintainer.h"
#include "core/scorer.h"
#include "core/topk_result.h"
#include "graph/graph.h"

namespace esd::core {

/// A dynamically maintained ESDIndex (Section V): the maintenance state of
/// Maintainer over a treap EsdIndex, so every update also moves the touched
/// edges' entries in H (lines 20-22 of Algorithms 4-5) — the "dynamic"
/// engine and the Fig. 11 bench.
///
/// As an EsdQueryEngine the class delegates every read to the maintained
/// EsdIndex, so a dynamic deployment serves the exact same answers as a
/// static one built on the current graph.
class DynamicEsdIndex final : public EsdQueryEngine,
                              public Maintainer<EsdIndex> {
 public:
  /// Bootstraps from a static snapshot using the 4-clique builder.
  explicit DynamicEsdIndex(
      const graph::Graph& g,
      DeletionStrategy strategy = DeletionStrategy::kTargeted)
      : DynamicEsdIndex(g, EsdScorer(), strategy) {}

  /// Scorer-parameterized bootstrap (see Maintainer's constructor).
  /// `scorer` must outlive the index (the built-ins are singletons).
  DynamicEsdIndex(const graph::Graph& g, const DiversityScorer& scorer,
                  DeletionStrategy strategy = DeletionStrategy::kTargeted)
      : Maintainer<EsdIndex>(g, scorer, strategy) {}

  /// Top-k query against the maintained index. O(k log m + log n).
  TopKResult Query(uint32_t k, uint32_t tau,
                   bool pad_with_zero_edges = true) const override {
    return table().Query(k, tau, pad_with_zero_edges);
  }

  /// Structural diversity of edge {u, v} at threshold tau, from the
  /// maintained multiset. Edge must exist.
  uint32_t ScoreOf(graph::VertexId u, graph::VertexId v, uint32_t tau) const {
    return table().ScoreOf(IdOf(u, v), tau);
  }

  /// EsdQueryEngine reads, delegated to the maintained index. Edge ids are
  /// the maintained index's dense ids (stable across updates that do not
  /// remove the edge).
  uint32_t ScoreOf(graph::EdgeId e, uint32_t tau) const override {
    return table().ScoreOf(e, tau);
  }
  /// Bytes of the maintained index payload (the serving structure; the
  /// per-edge DSU maintenance state is not counted).
  uint64_t MemoryBytes() const override { return table().MemoryBytes(); }
  std::string_view EngineName() const override { return "dynamic"; }
  ScorerKind Scorer() const override { return table().Scorer(); }

  /// Work counters of the maintained index (queries route through it).
  EngineCounters Counters() const override { return table().Counters(); }

  /// The maintained index (for introspection and tests).
  const EsdIndex& Index() const { return table(); }
};

}  // namespace esd::core

#endif  // ESD_CORE_DYNAMIC_INDEX_H_
