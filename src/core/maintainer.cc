#include "core/maintainer.h"

#include <algorithm>
#include <cassert>

#include "core/edge_size_table.h"
#include "core/esd_index.h"
#include "core/index_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace esd::core {

using graph::Edge;
using graph::EdgeId;
using graph::VertexId;
using util::KeyedDsu;

namespace {

// Resolved once; afterwards each update is one relaxed atomic add.
obs::Counter& InsertCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter(
      "esd_dynamic_inserts_total", "Edge insertions applied (Algorithm 4)");
  return c;
}
obs::Counter& DeleteCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter(
      "esd_dynamic_deletes_total", "Edge deletions applied (Algorithm 5)");
  return c;
}
obs::Counter& TouchedCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter(
      "esd_dynamic_touched_edges_total",
      "Edges whose index entries were touched by updates (locality)");
  return c;
}

void SortUnique(std::vector<EdgeId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

MaintainerBootstrap BuildMaintainerBootstrap(const graph::Graph& g,
                                             const DiversityScorer& scorer) {
  MaintainerBootstrap out;
  out.values = scorer.Kind() == ScorerKind::kEsd
                   ? CliqueComponentSizes(g, nullptr, &out.dsus)
                   : scorer.BuildAllEdgeValues(g);
  return out;
}

template <class Table>
Maintainer<Table>::Maintainer(const graph::Graph& g,
                              const DiversityScorer& scorer,
                              DeletionStrategy strategy,
                              MaintainerBootstrap built)
    : graph_(g),
      scorer_(&scorer),
      use_dsu_(scorer.Kind() == ScorerKind::kEsd),
      dsu_(std::move(built.dsus)),
      strategy_(strategy) {
  assert(built.values.offsets.size() == g.NumEdges() + 1);
  assert(!use_dsu_ || dsu_.size() == g.NumEdges());
  table_.BulkLoad(g.Edges(), std::move(built.values));
  table_.SetScorerKind(scorer.Kind());
}

template <class Table>
std::span<const uint32_t> Maintainer<Table>::ValuesFor(EdgeId e) {
  if (use_dsu_) {
    dsu_[e].ComponentSizes(&values_);
  } else {
    const Edge uv = table_.EdgeAt(e);
    values_ = scorer_->EdgeValues(graph_, uv.u, uv.v);
  }
  return values_;
}

template <class Table>
void Maintainer<Table>::RefreshScores(EdgeId e) {
  if (batch_mode_) {
    pending_refresh_.Insert(e);
    return;
  }
  table_.SetEdgeSizes(e, ValuesFor(e));
}

template <class Table>
size_t Maintainer<Table>::ApplyBatch(std::span<const EdgeUpdate> updates) {
  batch_mode_ = true;
  pending_refresh_.Clear();
  size_t applied = 0;
  for (const EdgeUpdate& up : updates) {
    bool ok = up.kind == EdgeUpdate::Kind::kInsert ? InsertEdge(up.u, up.v)
                                                   : DeleteEdge(up.u, up.v);
    applied += ok;
  }
  batch_mode_ = false;
  size_t touched = 0;
  pending_refresh_.ForEach([this, &touched](EdgeId e) {
    // Skip ids freed later in the batch; a freed id reused by a later
    // insert is live again and due a refresh anyway.
    if (table_.IsLive(e)) {
      table_.SetEdgeSizes(e, ValuesFor(e));
      ++touched;
    }
  });
  pending_refresh_.Clear();
  last_touched_ = touched;
  return applied;
}

template <class Table>
void Maintainer<Table>::BuildCommonWithIds(VertexId u, VertexId v) {
  const std::span<const VertexId> nu = graph_.Neighbors(u);
  const std::span<const VertexId> nv = graph_.Neighbors(v);
  const std::span<const EdgeId> eu = graph_.IncidentEdges(u);
  const std::span<const EdgeId> ev = graph_.IncidentEdges(v);
  common_.clear();
  wedge_ids_.clear();
  for (size_t i = 0, j = 0; i < nu.size() && j < nv.size();) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nu[i] > nv[j]) {
      ++j;
    } else {
      common_.push_back(nu[i]);
      wedge_ids_.push_back(eu[i++]);
      wedge_ids_.push_back(ev[j++]);
    }
  }
  ego_.Build(graph_, common_);
}

template <class Table>
bool Maintainer<Table>::InsertEdge(VertexId u, VertexId v) {
  ESD_TRACE_SPAN("maintain.insert");
  if (u == v || std::max(u, v) >= graph_.NumVertices() ||
      graph_.HasEdge(u, v)) {
    return false;
  }
  InsertCounter().Inc();
  const EdgeId e = table_.RegisterEdge(graph::MakeEdge(u, v));
  graph_.InsertEdge(u, v, e);
  if (use_dsu_) {
    // A freed id's structure was emptied by its deletion.
    if (e >= dsu_.size()) dsu_.Resize(e + 1);
    assert(dsu_[e].NumMembers() == 0);
  }

  // Lines 2-9 of Algorithm 4: the common neighborhood seeds M_uv, and the
  // new edge makes v a common neighbor of every (u, w) — and u of every
  // (v, w) — for w in N(uv). The affected-edge enumeration is the same for
  // every scorer; only the DSU repairs are ESD-specific (non-ESD scorers
  // recompute each affected edge through the scorer hook instead).
  BuildCommonWithIds(u, v);
  const std::span<const VertexId> common = ego_.Members();
  affected_.assign(1, e);
  if (use_dsu_) dsu_[e].AddMembers(common);
  for (size_t i = 0; i < common.size(); ++i) {
    const EdgeId euw = wedge_ids_[2 * i], evw = wedge_ids_[2 * i + 1];
    if (use_dsu_) {
      dsu_[euw].AddMember(v);
      dsu_[evw].AddMember(u);
    }
    affected_.push_back(euw);
    affected_.push_back(evw);
  }

  // Lines 10-19: every edge (w1, w2) inside N(uv) closes the new 4-clique
  // {u, v, w1, w2}; merge the opposite pair in all six structures.
  ego_.ForEachEdge([&](uint32_t i, uint32_t j) {
    const VertexId w1 = common[i], w2 = common[j];
    const EdgeId e12 = IdOf(w1, w2);
    if (use_dsu_) {
      dsu_[e].Union(w1, w2);
      dsu_[wedge_ids_[2 * i]].Union(v, w2);      // (u, w1)
      dsu_[wedge_ids_[2 * j]].Union(v, w1);      // (u, w2)
      dsu_[wedge_ids_[2 * i + 1]].Union(u, w2);  // (v, w1)
      dsu_[wedge_ids_[2 * j + 1]].Union(u, w1);  // (v, w2)
      dsu_[e12].Union(u, v);
    }
    affected_.push_back(e12);
  });

  // Lines 20-22: refresh C_xy (and, in an EsdIndex table, H) for every
  // edge of Ĝ_{N(uv)}.
  SortUnique(&affected_);
  for (EdgeId a : affected_) RefreshScores(a);
  last_touched_ = affected_.size();
  TouchedCounter().Inc(last_touched_);
  return true;
}

template <class Table>
bool Maintainer<Table>::DeleteEdge(VertexId u, VertexId v) {
  ESD_TRACE_SPAN("maintain.delete");
  const EdgeId e = IdOf(u, v);
  if (e == graph::kNoEdge) return false;
  DeleteCounter().Inc();

  // Snapshot the affected subgraph G̃_{N(uv)} before mutating the graph: the
  // wedge edges (u, w), (v, w) for each w in N(uv), then every edge inside
  // N(uv). The snapshot is held as edge ids because the repairs below
  // rebuild ego_.
  BuildCommonWithIds(u, v);
  const std::span<const VertexId> common = ego_.Members();
  affected_.assign(wedge_ids_.begin(), wedge_ids_.end());
  const size_t num_wedge = affected_.size();
  ego_.ForEachEdge([&](uint32_t i, uint32_t j) {
    affected_.push_back(IdOf(common[i], common[j]));
  });

  graph_.EraseEdge(u, v);

  // Non-ESD scorers repair every affected edge by recomputing its values
  // from the post-deletion graph via the scorer hook (RefreshScores).
  if (use_dsu_ && strategy_ == DeletionStrategy::kTargeted) {
    // Algorithm 5. For each w in N(uv): v leaves N(uw) and u leaves N(vw);
    // if the leaving endpoint was isolated it is simply dropped (lines 6-9),
    // otherwise its component is rebuilt (the Update procedure).
    for (size_t i = 0; i < num_wedge; i += 2) {
      const EdgeId euw = affected_[i], evw = affected_[i + 1];
      if (!dsu_[euw].RemoveSingleton(v)) TargetedRepair(euw, v);
      if (!dsu_[evw].RemoveSingleton(u)) TargetedRepair(evw, u);
    }
    // For each edge (w1, w2) inside N(uv): the 4-clique {u, v, w1, w2} is
    // broken; u and v stay members of M_{w1w2} but their shared component
    // may split (lines 10-18).
    for (size_t i = num_wedge; i < affected_.size(); ++i) {
      TargetedRepair(affected_[i], u);
    }
  }
  SortUnique(&affected_);
  if (use_dsu_ && strategy_ == DeletionStrategy::kRebuildLocal) {
    for (EdgeId a : affected_) RebuildDsu(a);
  }
  for (EdgeId a : affected_) RefreshScores(a);

  // Lines 22-23: drop the deleted edge itself.
  table_.SetEdgeSizes(e, {});
  table_.UnregisterEdge(e);
  if (use_dsu_) dsu_[e].Clear();
  last_touched_ = affected_.size() + 1;
  TouchedCounter().Inc(last_touched_);
  return true;
}

template <class Table>
size_t Maintainer<Table>::RemoveVertexEdges(graph::VertexId v) {
  if (v >= graph_.NumVertices()) return 0;
  auto nbrs = graph_.Neighbors(v);
  std::vector<EdgeUpdate> batch;
  batch.reserve(nbrs.size());
  for (graph::VertexId w : nbrs) {
    batch.push_back({EdgeUpdate::Kind::kDelete, v, w});
  }
  return ApplyBatch(batch);
}

template <class Table>
void Maintainer<Table>::RebuildDsu(EdgeId e) {
  const Edge xy = table_.EdgeAt(e);
  ego_.BuildCommon(graph_, xy.u, xy.v);
  dsu_[e].Clear();
  AddEgoTo(dsu_[e]);
}

template <class Table>
void Maintainer<Table>::TargetedRepair(EdgeId e, VertexId z) {
  KeyedDsu m = dsu_[e];
  if (!m.Contains(z)) return;
  const Edge xy = table_.EdgeAt(e);
  m.ComponentMembers(z, &component_);
  m.RemoveComponent(z);
  // Re-admit members still in N(xy) as singletons (lines 28-30), then
  // re-union along surviving ego-network edges (lines 31-33). Deletions
  // only split components, so edges leaving the old component's vertex set
  // cannot exist.
  std::erase_if(component_, [this, &xy](VertexId w) {
    return !graph_.HasEdge(xy.u, w) || !graph_.HasEdge(xy.v, w);
  });
  ego_.Build(graph_, component_);
  AddEgoTo(m);
}

template <class Table>
void Maintainer<Table>::AddEgoTo(KeyedDsu m) {
  const std::span<const VertexId> members = ego_.Members();
  m.AddMembers(members);
  // One search per member, not two per edge: an ego-network is often far
  // denser than it is large.
  ego_slots_.clear();
  for (VertexId w : members) ego_slots_.push_back(m.SlotOf(w));
  ego_.ForEachEdge([&](uint32_t i, uint32_t j) {
    m.UnionSlots(ego_slots_[i], ego_slots_[j]);
  });
}

template class Maintainer<EdgeSizeTable>;
template class Maintainer<EsdIndex>;

}  // namespace esd::core
