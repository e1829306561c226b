#ifndef ESD_CORE_DYNAMIC_INDEX_H_
#define ESD_CORE_DYNAMIC_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/esd_index.h"
#include "core/scorer.h"
#include "core/topk_result.h"
#include "graph/dynamic_graph.h"
#include "graph/ego_net.h"
#include "graph/graph.h"
#include "util/dsu.h"
#include "util/flat_map.h"

namespace esd::core {

/// How DeleteEdge repairs the per-edge disjoint sets of affected edges.
enum class DeletionStrategy {
  /// Rebuild M_xy of every affected edge from scratch (simple, obviously
  /// correct; cost O(Σ |N(xy)| · d̄) over affected edges).
  kRebuildLocal,
  /// The paper's Update procedure (Algorithm 5, lines 24-35): rebuild only
  /// the single component that contained the deleted edge's endpoints.
  kTargeted,
};

/// A dynamically maintained ESDIndex (Section V).
///
/// Owns the evolving graph, the index H, and the per-edge disjoint-set
/// structures M_e plus component-size multisets C_e the paper's maintenance
/// algorithms carry along. InsertEdge implements Algorithm 4; DeleteEdge
/// implements Algorithm 5 (both strategies available).
///
/// The key locality property (Observations 2 and 3): an update of edge
/// (u, v) only touches edges of the subgraph Ĝ_{N(uv)} induced by
/// N(uv) ∪ {u, v}.
///
/// As an EsdQueryEngine the class delegates every read to the maintained
/// EsdIndex, so a dynamic deployment serves the exact same answers as a
/// static one built on the current graph.
class DynamicEsdIndex final : public EsdQueryEngine {
 public:
  /// Bootstraps from a static snapshot using the 4-clique builder.
  explicit DynamicEsdIndex(
      const graph::Graph& g,
      DeletionStrategy strategy = DeletionStrategy::kTargeted);

  /// Scorer-parameterized bootstrap. For the ESD scorer this is the ctor
  /// above (incremental DSU maintenance, Algorithms 4/5). For any other
  /// scorer the same affected-edge enumeration applies — an update of
  /// (u, v) only changes the ego subgraphs of the edge itself, the wedge
  /// edges (u, w)/(v, w), and the pair edges inside N(uv) — but each
  /// affected edge's value multiset is recomputed through the scorer's
  /// single-edge hook instead of repaired via per-edge disjoint sets.
  /// `scorer` must outlive the index (the built-ins are singletons).
  DynamicEsdIndex(const graph::Graph& g, const DiversityScorer& scorer,
                  DeletionStrategy strategy = DeletionStrategy::kTargeted);

  /// Inserts edge {u, v} and repairs the index (Algorithm 4).
  /// Returns false (no-op) if the edge exists or u == v.
  bool InsertEdge(graph::VertexId u, graph::VertexId v);

  /// Deletes edge {u, v} and repairs the index (Algorithm 5).
  /// Returns false (no-op) if the edge does not exist.
  bool DeleteEdge(graph::VertexId u, graph::VertexId v);

  /// One update of a batch.
  struct EdgeUpdate {
    enum class Kind : uint8_t { kInsert, kDelete };
    Kind kind;
    graph::VertexId u, v;
  };

  /// Applies a sequence of updates, deferring and deduplicating the H-list
  /// score refreshes until the end of the batch — edges touched by several
  /// updates are re-scored once (an extension beyond the paper's
  /// one-update-at-a-time algorithms). Returns the number of updates that
  /// took effect.
  size_t ApplyBatch(std::span<const EdgeUpdate> updates);

  /// Adds an isolated vertex and returns its id. (Section V: "vertex
  /// insertion and deletion can be treated as a series of edge insertions
  /// and deletions" — pair this with InsertEdge for the edges.)
  graph::VertexId AddVertex() { return graph_.AddVertex(); }

  /// Removes every edge incident to `v` as one batch (v itself remains as
  /// an isolated vertex, matching the paper's reduction of vertex deletion
  /// to edge deletions). Returns the number of edges removed.
  size_t RemoveVertexEdges(graph::VertexId v);

  /// Top-k query against the maintained index. O(k log m + log n).
  TopKResult Query(uint32_t k, uint32_t tau,
                   bool pad_with_zero_edges = true) const override {
    return index_.Query(k, tau, pad_with_zero_edges);
  }

  /// Structural diversity of edge {u, v} at threshold tau, from the
  /// maintained multiset. Edge must exist.
  uint32_t ScoreOf(graph::VertexId u, graph::VertexId v, uint32_t tau) const;

  /// EsdQueryEngine reads, delegated to the maintained index. Edge ids are
  /// the maintained index's dense ids (stable across updates that do not
  /// remove the edge).
  uint32_t ScoreOf(graph::EdgeId e, uint32_t tau) const override {
    return index_.ScoreOf(e, tau);
  }
  uint64_t CountWithScoreAtLeast(uint32_t tau,
                                 uint32_t min_score) const override {
    return index_.CountWithScoreAtLeast(tau, min_score);
  }
  TopKResult QueryWithScoreAtLeast(uint32_t tau, uint32_t min_score,
                                   size_t limit = 0) const override {
    return index_.QueryWithScoreAtLeast(tau, min_score, limit);
  }
  /// Bytes of the maintained index payload (the serving structure; the
  /// per-edge DSU maintenance state is not counted).
  uint64_t MemoryBytes() const override { return index_.MemoryBytes(); }
  std::string_view EngineName() const override { return "dynamic"; }
  ScorerKind Scorer() const override { return scorer_->Kind(); }

  /// Work counters of the maintained index (queries route through it).
  EngineCounters Counters() const override { return index_.Counters(); }

  /// Current graph.
  const graph::DynamicGraph& CurrentGraph() const { return graph_; }

  /// The maintained index (for introspection and tests).
  const EsdIndex& Index() const { return index_; }

  /// Number of edges whose score entries were touched by the last update —
  /// the locality measure reported by the maintenance bench.
  size_t LastUpdateTouchedEdges() const { return last_touched_; }

 private:
  static uint64_t Key(graph::VertexId u, graph::VertexId v) {
    graph::Edge e = graph::MakeEdge(u, v);
    return (static_cast<uint64_t>(e.u) << 32) | e.v;
  }

  graph::EdgeId IdOf(graph::VertexId u, graph::VertexId v) const;

  /// Rebuilds dsu_[e] from the current graph (common neighborhood +
  /// pairwise adjacency unions).
  void RebuildDsu(graph::EdgeId e);

  /// Adds ego_'s members to `*m` as singletons, then unions them along
  /// ego_'s edges.
  void AddEgoTo(util::KeyedDsu* m) const;

  /// Paper's Update: in M_e, rebuild only the component containing z.
  /// `z` need not be a member (then this is a no-op).
  void TargetedRepair(graph::EdgeId e, graph::VertexId z);

  /// Pushes edge e's current value multiset into the index.
  void RefreshScores(graph::EdgeId e);

  /// Edge e's value multiset right now: M_e's component sizes on the DSU
  /// fast path, otherwise a scorer recompute from the current graph.
  std::vector<uint32_t> ValuesFor(graph::EdgeId e);

  graph::DynamicGraph graph_;
  EsdIndex index_;
  const DiversityScorer* scorer_;               // never null
  bool use_dsu_;  // ESD only: maintain per-edge DSUs incrementally
  std::vector<util::KeyedDsu> dsu_;             // by EdgeId (DSU path only)
  util::FlatMap<uint64_t, graph::EdgeId> ids_;  // (u,v) -> EdgeId
  DeletionStrategy strategy_;
  size_t last_touched_ = 0;
  // Batch mode: RefreshScores records edge keys here instead of updating H.
  bool batch_mode_ = false;
  util::FlatSet<uint64_t> pending_refresh_;
  // Per-update working state, reused so a warm writer does not allocate.
  graph::EgoScratch ego_;
  std::vector<graph::EdgeId> affected_;
};

}  // namespace esd::core

#endif  // ESD_CORE_DYNAMIC_INDEX_H_
