#include "core/query_engine.h"

#include <algorithm>

#include "core/dynamic_index.h"
#include "core/ego_network.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "obs/metrics.h"

namespace esd::core {

TopKResult OnlineQueryEngine::Query(uint32_t k, uint32_t tau,
                                    bool pad_with_zero_edges) const {
  if (k == 0 || tau == 0) return {};
  OnlineStats stats;
  TopKResult out = OnlineTopK(graph_, k, tau, rule_, &stats);
  counters_.AddQuery();
  counters_.AddOnlineStats(stats);
  if (!pad_with_zero_edges) {
    while (!out.empty() && out.back().score == 0) out.pop_back();
  }
  return out;
}

uint32_t OnlineQueryEngine::ScoreOf(graph::EdgeId e, uint32_t tau) const {
  const graph::Edge& uv = graph_.EdgeAt(e);
  return EdgeScore(graph_, uv.u, uv.v, tau);
}

std::vector<uint32_t> ScorerOnlineEngine::AllScores(uint32_t tau) const {
  std::vector<uint32_t> scores(graph_.NumEdges(), 0);
  for (graph::EdgeId e = 0; e < graph_.NumEdges(); ++e) {
    const graph::Edge& uv = graph_.EdgeAt(e);
    scores[e] = ScoreFromSizes(scorer_.EdgeValues(graph_, uv.u, uv.v), tau);
  }
  return scores;
}

TopKResult ScorerOnlineEngine::Query(uint32_t k, uint32_t tau,
                                     bool pad_with_zero_edges) const {
  if (k == 0 || tau == 0) return {};
  counters_.AddQuery();
  const std::vector<uint32_t> scores = AllScores(tau);
  counters_.AddEntriesScanned(scores.size());
  // Positive-score edges in the canonical (score desc, edge asc) order,
  // then the documented zero-pad order — exact parity with the indexes.
  std::vector<graph::EdgeId> positive;
  for (graph::EdgeId e = 0; e < scores.size(); ++e) {
    if (scores[e] > 0) positive.push_back(e);
  }
  std::sort(positive.begin(), positive.end(),
            [&scores](graph::EdgeId a, graph::EdgeId b) {
              if (scores[a] != scores[b]) return scores[a] > scores[b];
              return a < b;
            });
  TopKResult out;
  const size_t take = std::min<size_t>(k, positive.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ScoredEdge{graph_.EdgeAt(positive[i]), scores[positive[i]]});
  }
  if (pad_with_zero_edges) {
    for (graph::EdgeId e = 0; e < scores.size() && out.size() < k; ++e) {
      if (scores[e] == 0) out.push_back(ScoredEdge{graph_.EdgeAt(e), 0});
    }
  }
  return out;
}

uint32_t ScorerOnlineEngine::ScoreOf(graph::EdgeId e, uint32_t tau) const {
  const graph::Edge& uv = graph_.EdgeAt(e);
  return ScoreFromSizes(scorer_.EdgeValues(graph_, uv.u, uv.v), tau);
}

std::vector<std::string> QueryEngineNames() {
  return {"treap", "frozen", "dynamic", "online", "online-mindeg"};
}

std::unique_ptr<EsdQueryEngine> BuildQueryEngine(const graph::Graph& g,
                                                 std::string_view name,
                                                 const DiversityScorer& scorer,
                                                 std::string* error) {
  if (name == "treap") {
    return std::make_unique<EsdIndex>(BuildIndex(g, scorer));
  }
  if (name == "frozen") {
    return std::make_unique<FrozenEsdIndex>(BuildFrozenIndex(g, scorer));
  }
  if (name == "dynamic") {
    return std::make_unique<DynamicEsdIndex>(g, scorer);
  }
  if (name == "online" || name == "online-mindeg") {
    // The pruned OnlineBFS is the paper's, for ESD only; any other scorer
    // gets the full scan.
    if (scorer.Kind() != ScorerKind::kEsd) {
      return std::make_unique<ScorerOnlineEngine>(g, scorer);
    }
    return std::make_unique<OnlineQueryEngine>(
        g, name == "online" ? UpperBoundRule::kCommonNeighbor
                            : UpperBoundRule::kMinDegree);
  }
  if (error != nullptr) {
    *error = "unknown engine '" + std::string(name) + "' (expected one of:";
    for (const std::string& n : QueryEngineNames()) *error += " " + n;
    *error += ")";
  }
  return nullptr;
}

void ExportEngineCounters(const EsdQueryEngine& engine,
                          obs::MetricRegistry* registry,
                          std::string_view prefix) {
  const EngineCounters c = engine.Counters();
  const std::string p(prefix);
  auto set = [&](const char* field, uint64_t v, const char* help) {
    registry->GetGauge(p + field, help).Set(static_cast<double>(v));
  };
  set("queries", c.queries, "Query() calls answered by the engine");
  set("slab_searches", c.slab_searches,
      "H-list / slab binary searches run");
  set("entries_scanned", c.entries_scanned,
      "Index entries read to build answers");
  set("heap_pops", c.heap_pops, "Online search priority-queue pops");
  set("exact_computations", c.exact_computations,
      "Online search exact ego-network BFS runs");
  set("zero_bound_skips", c.zero_bound_skips,
      "Online candidates certified by a zero upper bound");
}

}  // namespace esd::core
