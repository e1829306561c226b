#ifndef ESD_CORE_MAINTAINER_H_
#define ESD_CORE_MAINTAINER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/scorer.h"
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

/// What a Maintainer boots from: every edge's value multiset C_e and, for
/// the ESD scorer, every edge's M_e, both as flat pools indexed by the
/// graph's edge ids.
struct MaintainerBootstrap {
  EdgeSizePool values;
  util::KeyedDsuPool dsus;  // empty unless the scorer is ESD
};

/// The build half of a Maintainer's boot: the scorer's bulk hook, and for
/// the ESD scorer the 4-clique build with its M_e export
/// (CliqueComponentSizes).
MaintainerBootstrap BuildMaintainerBootstrap(const graph::Graph& g,
                                             const DiversityScorer& scorer);

/// Section V's maintenance state: the evolving graph, the edge table (edge
/// registry plus each edge's value multiset C_e), and the per-edge
/// disjoint-set structures M_e. C_e and M_e each live in one flat pool
/// (util::RunPool), and the graph keeps each edge's id beside the
/// neighbour, so a boot hands over a few blocks and no update hashes an
/// edge. InsertEdge implements Algorithm 4 and DeleteEdge Algorithm 5;
/// each writes the new C_e of every touched edge through
/// Table::SetEdgeSizes.
///
/// `Table` is EdgeSizeTable (the live writer, which freezes straight from
/// C_e) or EsdIndex (the dynamic engine, whose SetEdgeSizes also moves the
/// edge's H entries: lines 20-22). Both are instantiated in maintainer.cc.
///
/// The key locality property (Observations 2 and 3): an update of edge
/// (u, v) only touches edges of the subgraph Ĝ_{N(uv)} induced by
/// N(uv) ∪ {u, v}.
template <class Table>
class Maintainer {
 public:
  /// Bootstraps from a static snapshot. For the ESD scorer the multisets
  /// and M_e come from the 4-clique build and are maintained through the
  /// DSUs (Algorithms 4/5). For any other scorer the same affected-edge
  /// enumeration applies — an update of (u, v) only changes the ego
  /// subgraphs of the edge itself, the wedge edges (u, w)/(v, w), and the
  /// pair edges inside N(uv) — but each affected edge's value multiset is
  /// recomputed through the scorer's single-edge hook. `scorer` must
  /// outlive the maintainer (the built-ins are singletons).
  Maintainer(const graph::Graph& g, const DiversityScorer& scorer,
             DeletionStrategy strategy)
      : Maintainer(g, scorer, strategy, BuildMaintainerBootstrap(g, scorer)) {}

  /// The hand-over half: adopts `built` (BuildMaintainerBootstrap of the
  /// same graph and scorer) by move, and copies the graph.
  Maintainer(const graph::Graph& g, const DiversityScorer& scorer,
             DeletionStrategy strategy, MaintainerBootstrap built);

  /// Inserts edge {u, v} and repairs the table (Algorithm 4).
  /// Returns false (no-op) if the edge exists or u == v.
  bool InsertEdge(graph::VertexId u, graph::VertexId v);

  /// Deletes edge {u, v} and repairs the table (Algorithm 5).
  /// Returns false (no-op) if the edge does not exist.
  bool DeleteEdge(graph::VertexId u, graph::VertexId v);

  /// One update of a batch.
  struct EdgeUpdate {
    enum class Kind : uint8_t { kInsert, kDelete };
    Kind kind;
    graph::VertexId u, v;
  };

  /// Applies a sequence of updates, deferring and deduplicating the
  /// multiset refreshes until the end of the batch — edges touched by
  /// several updates are re-scored once (an extension beyond the paper's
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

  /// Current graph.
  const graph::DynamicGraph& CurrentGraph() const { return graph_; }

  /// The maintained edge table.
  const Table& table() const { return table_; }

  /// The maintained edge table, for the bookkeeping that leaves C_e alone
  /// (EdgeSizeTable's change log). Writing C_e through it would bypass
  /// the maintenance.
  Table& mutable_table() { return table_; }

  /// The per-edge disjoint sets M_e, by EdgeId; empty unless the scorer is
  /// ESD.
  const util::KeyedDsuPool& EdgeDsus() const { return dsu_; }

  /// Number of edges whose multisets were refreshed by the last update —
  /// the locality measure reported by the maintenance bench.
  size_t LastUpdateTouchedEdges() const { return last_touched_; }

 protected:
  /// Dense id of the existing edge {u, v}.
  graph::EdgeId IdOf(graph::VertexId u, graph::VertexId v) const {
    return graph_.FindEdge(u, v);
  }

 private:
  /// Sets ego_ to the ego-network of {u, v}, and wedge_ids_ to the ids of
  /// (u, w) and (v, w) for each member w in turn, read off the same merge.
  void BuildCommonWithIds(graph::VertexId u, graph::VertexId v);

  /// Rebuilds dsu_[e] from the current graph (common neighborhood +
  /// pairwise adjacency unions).
  void RebuildDsu(graph::EdgeId e);

  /// Adds ego_'s members, none of them in `*m`, to `*m` as singletons,
  /// then unions them along ego_'s edges.
  void AddEgoTo(util::KeyedDsu m);

  /// Paper's Update: in M_e, rebuild only the component containing z.
  /// `z` need not be a member (then this is a no-op).
  void TargetedRepair(graph::EdgeId e, graph::VertexId z);

  /// Pushes edge e's current value multiset into the table.
  void RefreshScores(graph::EdgeId e);

  /// Edge e's value multiset right now, in a scratch buffer the next call
  /// reuses: M_e's component sizes on the DSU fast path, otherwise a scorer
  /// recompute from the current graph.
  std::span<const uint32_t> ValuesFor(graph::EdgeId e);

  graph::DynamicGraph graph_;
  Table table_;
  const DiversityScorer* scorer_;               // never null
  bool use_dsu_;  // ESD only: maintain per-edge DSUs incrementally
  util::KeyedDsuPool dsu_;  // by EdgeId (DSU path only)
  DeletionStrategy strategy_;
  size_t last_touched_ = 0;
  // Batch mode: RefreshScores records edge ids here instead of updating
  // the table.
  bool batch_mode_ = false;
  util::FlatSet<graph::EdgeId> pending_refresh_;
  // Per-update working state, reused so a warm writer does not allocate.
  graph::EgoScratch ego_;
  std::vector<graph::VertexId> common_;   // N(uv), ascending
  std::vector<graph::EdgeId> wedge_ids_;  // (u, w), (v, w) per w in common_
  std::vector<graph::EdgeId> affected_;
  std::vector<uint32_t> values_;  // ValuesFor's result
  std::vector<graph::VertexId> component_;  // TargetedRepair, ascending
  std::vector<uint32_t> ego_slots_;  // AddEgoTo: ego member -> M_e slot
};

}  // namespace esd::core

#endif  // ESD_CORE_MAINTAINER_H_
