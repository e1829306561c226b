#include "core/scorer.h"

#include <algorithm>

#include "cliques/truss.h"
#include "core/ego_network.h"
#include "core/index_builder.h"
#include "graph/ego_net.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace esd::core {

namespace {

using graph::Edge;
using graph::Graph;
using graph::VertexId;

// Truss-cohesion values of edge {u, v}: one truss decomposition over the ego
// subgraph G_{N(uv)}, then per connected component the max trussness of its
// edges (1 for an edgeless singleton). G is a Graph or a DynamicGraph.
template <typename G>
std::vector<uint32_t> TrussValuesImpl(const G& g, VertexId u, VertexId v) {
  graph::EgoScratch& ego = graph::ThreadEgoScratch();
  ego.BuildCommon(g, u, v);
  if (ego.NumMembers() == 0) return {};
  std::vector<Edge> local_edges;
  local_edges.reserve(ego.NumEdges());
  ego.ForEachEdge([&local_edges](uint32_t i, uint32_t j) {
    local_edges.push_back(Edge{i, j});
  });
  const Graph sub = Graph::FromEdges(ego.NumMembers(), std::move(local_edges));
  const cliques::TrussDecomposition truss = cliques::ComputeTrussness(sub);
  std::vector<uint32_t> values(ego.ComponentSizes().size(), 1);
  for (graph::EdgeId e = 0; e < sub.NumEdges(); ++e) {
    uint32_t& best = values[ego.Label(sub.EdgeAt(e).u)];
    best = std::max(best, truss.trussness[e]);
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
  graph::EgoScratch& ego = graph::ThreadEgoScratch();
  ego.BuildCommon(g, u, v);
  const uint64_t s = ego.NumMembers();
  const uint64_t b = s < 2 ? 0 : s * (s - 1) / 2 - ego.NumEdges();
  return std::vector<uint32_t>(static_cast<size_t>(b),
                               static_cast<uint32_t>(b));
}

class EsdScorerImpl final : public DiversityScorer {
 public:
  ScorerKind Kind() const override { return ScorerKind::kEsd; }
  std::string_view Name() const override { return "esd"; }
  EdgeSizePool BuildAllEdgeValues(const Graph& g,
                                  util::ThreadPool* pool) const override {
    return CliqueComponentSizes(g, pool);
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

EdgeSizePool DiversityScorer::BuildAllEdgeValues(
    const Graph& g, util::ThreadPool* pool) const {
  obs::PhaseSeries phases;
  phases.Begin("build.extract_sizes");
  std::vector<std::vector<uint32_t>> values(g.NumEdges());
  util::ForRange(pool, g.NumEdges(), 64, [&](uint64_t lo, uint64_t hi) {
    ESD_TRACE_SPAN("build.extract_sizes.chunk");
    for (uint64_t e = lo; e < hi; ++e) {
      const Edge& uv = g.EdgeAt(static_cast<graph::EdgeId>(e));
      values[e] = EdgeValues(g, uv.u, uv.v);
    }
  });
  return EdgeSizePool::Pack(
      values.size(),
      [&](size_t e) -> const std::vector<uint32_t>& { return values[e]; });
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
