#include "core/scorer.h"

#include <algorithm>

#include "cliques/truss.h"
#include "core/ego_network.h"
#include "core/index_builder.h"
#include "graph/graph.h"
#include "util/dsu.h"

namespace esd::core {

namespace {

using graph::Edge;
using graph::Graph;
using graph::VertexId;

std::vector<VertexId> CommonOf(const Graph& g, VertexId u, VertexId v) {
  return graph::CommonNeighbors(g, u, v);
}

std::vector<VertexId> CommonOf(const graph::DynamicGraph& g, VertexId u,
                               VertexId v) {
  return g.CommonNeighbors(u, v);
}

// Truss-cohesion values of edge {u, v}: remap N(uv) to local ids, induce the
// ego subgraph, run one truss decomposition over it, and emit per connected
// component the max trussness of its edges (1 for an edgeless singleton).
// Works for Graph and DynamicGraph — both expose Neighbors() spans.
template <typename G>
std::vector<uint32_t> TrussValuesImpl(const G& g, VertexId u, VertexId v) {
  std::vector<VertexId> common = CommonOf(g, u, v);
  std::sort(common.begin(), common.end());
  const uint32_t s = static_cast<uint32_t>(common.size());
  if (s == 0) return {};
  std::vector<Edge> local_edges;
  for (uint32_t i = 0; i < s; ++i) {
    for (VertexId x : g.Neighbors(common[i])) {
      auto it = std::lower_bound(common.begin(), common.end(), x);
      if (it == common.end() || *it != x) continue;
      const uint32_t j = static_cast<uint32_t>(it - common.begin());
      if (i < j) local_edges.push_back(Edge{i, j});
    }
  }
  Graph ego = Graph::FromEdges(s, std::move(local_edges));
  const cliques::TrussDecomposition truss = cliques::ComputeTrussness(ego);
  util::Dsu dsu(s);
  for (const Edge& e : ego.Edges()) dsu.Union(e.u, e.v);
  std::vector<uint32_t> best(s, 0);
  for (graph::EdgeId e = 0; e < ego.NumEdges(); ++e) {
    const uint32_t root = dsu.Find(ego.EdgeAt(e).u);
    best[root] = std::max(best[root], truss.trussness[e]);
  }
  std::vector<uint32_t> values;
  values.reserve(dsu.NumComponents());
  for (uint32_t i = 0; i < s; ++i) {
    if (dsu.Find(i) != i) continue;
    values.push_back(std::max(best[i], 1u));  // edgeless component -> 1
  }
  std::sort(values.begin(), values.end());
  return values;
}

// Ego-betweenness of edge {u, v}: the number of non-adjacent pairs of common
// neighbors, b = s(s-1)/2 - |E(G_{N(uv)})|. Encoded as b copies of b so the
// generic threshold machinery yields score_tau = b * [tau <= b].
template <typename G>
std::vector<uint32_t> EgoBetweennessValuesImpl(const G& g, VertexId u,
                                               VertexId v) {
  std::vector<VertexId> common = CommonOf(g, u, v);
  std::sort(common.begin(), common.end());
  const uint64_t s = common.size();
  if (s < 2) return {};
  uint64_t intra = 0;  // edges of the induced ego subgraph, counted twice
  for (VertexId w : common) {
    for (VertexId x : g.Neighbors(w)) {
      if (std::binary_search(common.begin(), common.end(), x)) ++intra;
    }
  }
  const uint64_t b = s * (s - 1) / 2 - intra / 2;
  if (b == 0) return {};
  return std::vector<uint32_t>(static_cast<size_t>(b),
                               static_cast<uint32_t>(b));
}

class EsdScorerImpl final : public DiversityScorer {
 public:
  ScorerKind Kind() const override { return ScorerKind::kEsd; }
  std::string_view Name() const override { return "esd"; }
  std::vector<std::vector<uint32_t>> BuildAllEdgeValues(
      const Graph& g) const override {
    return CliqueComponentSizes(g, nullptr).ToVectors();
  }
  std::vector<uint32_t> EdgeValues(const Graph& g, VertexId u,
                                   VertexId v) const override {
    return EgoComponentSizes(g, u, v);
  }
  std::vector<uint32_t> EdgeValues(const graph::DynamicGraph& g, VertexId u,
                                   VertexId v) const override {
    return EgoComponentSizes(g, u, v);
  }
};

class TrussScorerImpl final : public DiversityScorer {
 public:
  ScorerKind Kind() const override { return ScorerKind::kTruss; }
  std::string_view Name() const override { return "truss"; }
  std::vector<uint32_t> EdgeValues(const Graph& g, VertexId u,
                                   VertexId v) const override {
    return TrussValuesImpl(g, u, v);
  }
  std::vector<uint32_t> EdgeValues(const graph::DynamicGraph& g, VertexId u,
                                   VertexId v) const override {
    return TrussValuesImpl(g, u, v);
  }
};

class EgoBetweennessScorerImpl final : public DiversityScorer {
 public:
  ScorerKind Kind() const override { return ScorerKind::kEgoBetweenness; }
  std::string_view Name() const override { return "egobw"; }
  std::vector<uint32_t> EdgeValues(const Graph& g, VertexId u,
                                   VertexId v) const override {
    return EgoBetweennessValuesImpl(g, u, v);
  }
  std::vector<uint32_t> EdgeValues(const graph::DynamicGraph& g, VertexId u,
                                   VertexId v) const override {
    return EgoBetweennessValuesImpl(g, u, v);
  }
};

}  // namespace

std::vector<std::vector<uint32_t>> DiversityScorer::BuildAllEdgeValues(
    const Graph& g) const {
  std::vector<std::vector<uint32_t>> values(g.NumEdges());
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& uv = g.EdgeAt(e);
    values[e] = EdgeValues(g, uv.u, uv.v);
  }
  return values;
}

const DiversityScorer& EsdScorer() {
  static const EsdScorerImpl scorer;
  return scorer;
}

const DiversityScorer& TrussScorer() {
  static const TrussScorerImpl scorer;
  return scorer;
}

const DiversityScorer& EgoBetweennessScorer() {
  static const EgoBetweennessScorerImpl scorer;
  return scorer;
}

const DiversityScorer* FindScorer(std::string_view name) {
  if (name == "esd") return &EsdScorer();
  if (name == "truss") return &TrussScorer();
  if (name == "egobw") return &EgoBetweennessScorer();
  return nullptr;
}

const DiversityScorer& ScorerForKind(ScorerKind kind) {
  switch (kind) {
    case ScorerKind::kEsd:
      return EsdScorer();
    case ScorerKind::kTruss:
      return TrussScorer();
    case ScorerKind::kEgoBetweenness:
      return EgoBetweennessScorer();
  }
  return EsdScorer();
}

bool ValidScorerKind(uint32_t raw) {
  return raw == static_cast<uint32_t>(ScorerKind::kEsd) ||
         raw == static_cast<uint32_t>(ScorerKind::kTruss) ||
         raw == static_cast<uint32_t>(ScorerKind::kEgoBetweenness);
}

std::string_view ScorerKindName(ScorerKind kind) {
  return ScorerForKind(kind).Name();
}

std::vector<std::string> ScorerNames() {
  return {"esd", "truss", "egobw"};
}

}  // namespace esd::core
