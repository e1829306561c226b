// Scorer plugin framework: registry round-trips, cross-engine parity of
// every scorer against test-local naive references, dynamic-maintenance
// churn parity, scorer-stamped index files (typed mismatch + garbage-id
// fuzz), and a live/WAL round trip for a non-ESD scorer. The Scorer*
// suites are part of the scorer-matrix CI job and the TSan filter.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_index.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/index_io.h"
#include "core/query_engine.h"
#include "core/score_profile.h"
#include "core/scorer.h"
#include "core/topk_result.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/watts_strogatz.h"
#include "graph/graph.h"
#include "live/live_index.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace esd {
namespace {

namespace fs = std::filesystem;

using core::BuildFrozenIndex;
using core::BuildIndex;
using core::DiversityScorer;
using core::DynamicEsdIndex;
using core::EsdIndex;
using core::EsdQueryEngine;
using core::FrozenEsdIndex;
using core::IndexIoResult;
using core::IndexIoStatus;
using core::Scores;
using core::ScorerKind;
using core::ScorerOnlineEngine;
using core::TopKResult;
using graph::Edge;
using graph::Graph;
using graph::VertexId;

/// The non-ESD scorers — the plugin path proper (ESD has its own exhaustive
/// suites; here it only anchors factory-equivalence checks).
std::vector<const DiversityScorer*> PluginScorers() {
  return {&core::TrussScorer(), &core::EgoBetweennessScorer()};
}

/// Small graph zoo for the parity properties.
std::vector<Graph> ParityGraphs() {
  std::vector<Graph> out;
  for (uint64_t seed : {1ull, 2ull}) {
    out.push_back(gen::ErdosRenyiGnm(60, 150, seed));
    out.push_back(gen::ErdosRenyiGnp(24, 0.4, seed));
    out.push_back(gen::WattsStrogatz(50, 4, 0.2, seed));
    out.push_back(gen::HolmeKim(45, 3, 0.5, seed));
  }
  return out;
}

/// Asserts `engine` answers exactly like the full-scan reference built from
/// the scorer's single-edge hook, across a (tau, k) grid: identical padded
/// top-k results (scores AND edges — the shared zero-padding order is part
/// of the engine contract) and per-edge scores.
void ExpectMatchesReference(const Graph& g, const DiversityScorer& scorer,
                            const EsdQueryEngine& engine) {
  const ScorerOnlineEngine ref(g, scorer);
  EXPECT_EQ(engine.Scorer(), scorer.Kind());
  for (uint32_t tau : {1u, 2u, 3u, 5u}) {
    for (uint32_t k : {1u, 7u, 25u}) {
      const TopKResult want = ref.Query(k, tau);
      const TopKResult got = engine.Query(k, tau);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].score, got[i].score) << "tau " << tau << " k " << k;
        EXPECT_EQ(want[i].edge.u, got[i].edge.u);
        EXPECT_EQ(want[i].edge.v, got[i].edge.v);
      }
    }
    for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
      ASSERT_EQ(ref.ScoreOf(e, tau), engine.ScoreOf(e, tau))
          << "edge " << e << " tau " << tau;
    }
  }
}

TEST(ScorerRegistryTest, NamesKindsAndLookupsRoundTrip) {
  EXPECT_EQ(core::ScorerNames(),
            (std::vector<std::string>{"esd", "truss", "egobw"}));
  for (const std::string& name : core::ScorerNames()) {
    const DiversityScorer* s = core::FindScorer(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->Name(), name);
    EXPECT_EQ(&core::ScorerForKind(s->Kind()), s);
    EXPECT_EQ(core::ScorerKindName(s->Kind()), name);
    EXPECT_TRUE(core::ValidScorerKind(static_cast<uint32_t>(s->Kind())));
  }
  EXPECT_EQ(core::FindScorer("bogus"), nullptr);
  EXPECT_EQ(core::FindScorer(""), nullptr);
  for (uint32_t raw : {0u, 4u, 255u, 0x80000000u, 0xFFFFFFFFu}) {
    EXPECT_FALSE(core::ValidScorerKind(raw)) << raw;
  }
}

TEST(ScorerParityTest, AllEnginesMatchReferenceOnEveryScorer) {
  for (const Graph& g : ParityGraphs()) {
    for (const DiversityScorer* scorer : PluginScorers()) {
      const EsdIndex treap = BuildIndex(g, *scorer);
      ExpectMatchesReference(g, *scorer, treap);
      const FrozenEsdIndex frozen = BuildFrozenIndex(g, *scorer);
      ExpectMatchesReference(g, *scorer, frozen);
      const EsdIndex par = BuildIndex(g, *scorer, 4);
      ExpectMatchesReference(g, *scorer, par);
      const FrozenEsdIndex pfro = BuildFrozenIndex(g, *scorer, 4);
      ExpectMatchesReference(g, *scorer, pfro);
      const DynamicEsdIndex dyn(g, *scorer);
      ExpectMatchesReference(g, *scorer, dyn);
    }
  }
}

TEST(ScorerParityTest, EsdScorerPathMatchesHistoricalBuilders) {
  const Graph g = gen::ErdosRenyiGnm(70, 200, 9);
  const FrozenEsdIndex via_scorer = BuildFrozenIndex(g, core::EsdScorer());
  const FrozenEsdIndex historical =
      FrozenEsdIndex::FromSizePool(g.Edges(), core::CliqueComponentSizes(g));
  EXPECT_TRUE(via_scorer == historical);
  EXPECT_EQ(via_scorer.Scorer(), ScorerKind::kEsd);

  std::string error;
  for (const std::string& name : core::QueryEngineNames()) {
    std::unique_ptr<EsdQueryEngine> engine =
        core::BuildQueryEngine(g, name, core::TrussScorer(), &error);
    ASSERT_NE(engine, nullptr) << name << ": " << error;
    EXPECT_EQ(engine->Scorer(), ScorerKind::kTruss) << name;
    ExpectMatchesReference(g, core::TrussScorer(), *engine);
  }
  EXPECT_EQ(core::BuildQueryEngine(g, "nope", core::TrussScorer(), &error),
            nullptr);
}

TEST(ScorerParityTest, FreezeThawCarryScorerAndAnswers) {
  const Graph g = gen::WattsStrogatz(40, 4, 0.3, 3);
  const EsdIndex treap = BuildIndex(g, core::TrussScorer());
  const FrozenEsdIndex frozen = core::Freeze(treap);
  EXPECT_EQ(frozen.Scorer(), ScorerKind::kTruss);
  const EsdIndex thawed = core::Thaw(frozen);
  EXPECT_EQ(thawed.Scorer(), ScorerKind::kTruss);
  for (uint32_t tau : {1u, 2u, 4u}) {
    EXPECT_EQ(Scores(treap.Query(10, tau)), Scores(thawed.Query(10, tau)));
  }
}

// ---------------------------------------------------------------------------
// Naive-reference checks: each plugin scorer's EdgeValues against an
// independent from-the-definition implementation.
// ---------------------------------------------------------------------------

/// Trussness by definition, for tiny graphs: for k = 3, 4, ..., peel edges
/// closing fewer than k-2 triangles among the survivors; an edge removed on
/// the way to the k-truss has trussness k-1. O(k * m^2) and proud of it.
std::vector<uint32_t> NaiveTrussness(uint32_t n,
                                     const std::vector<Edge>& edges) {
  const size_t m = edges.size();
  std::vector<uint32_t> truss(m, 0);
  std::vector<bool> alive(m, true);
  std::vector<std::set<VertexId>> adj(n);
  for (const Edge& e : edges) {
    adj[e.u].insert(e.v);
    adj[e.v].insert(e.u);
  }
  auto triangles = [&](size_t e) {
    uint32_t cnt = 0;
    for (VertexId w : adj[edges[e].u]) cnt += adj[edges[e].v].count(w);
    return cnt;
  };
  size_t remaining = m;
  for (uint32_t k = 3; remaining > 0; ++k) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t e = 0; e < m; ++e) {
        if (!alive[e] || triangles(e) >= k - 2) continue;
        alive[e] = false;
        truss[e] = k - 1;
        adj[edges[e].u].erase(edges[e].v);
        adj[edges[e].v].erase(edges[e].u);
        --remaining;
        changed = true;
      }
    }
  }
  return truss;
}

/// From-the-definition truss-cohesion values of edge {u, v}: components of
/// the induced common-neighbor subgraph, each valued by the max naive
/// trussness of its edges (1 when edgeless), sorted ascending.
std::vector<uint32_t> NaiveTrussValues(const Graph& g, VertexId u,
                                       VertexId v) {
  std::vector<VertexId> common = graph::CommonNeighbors(g, u, v);
  std::sort(common.begin(), common.end());
  const uint32_t s = static_cast<uint32_t>(common.size());
  std::vector<Edge> local;
  for (uint32_t i = 0; i < s; ++i) {
    for (uint32_t j = i + 1; j < s; ++j) {
      if (g.HasEdge(common[i], common[j])) local.push_back(Edge{i, j});
    }
  }
  const std::vector<uint32_t> truss = NaiveTrussness(s, local);
  std::vector<uint32_t> parent(s);
  for (uint32_t i = 0; i < s; ++i) parent[i] = i;
  std::function<uint32_t(uint32_t)> find = [&](uint32_t x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  for (const Edge& e : local) parent[find(e.u)] = find(e.v);
  std::vector<uint32_t> best(s, 0);
  for (size_t e = 0; e < local.size(); ++e) {
    best[find(local[e].u)] = std::max(best[find(local[e].u)], truss[e]);
  }
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < s; ++i) {
    if (find(i) == i) values.push_back(std::max(best[i], 1u));
  }
  std::sort(values.begin(), values.end());
  return values;
}

TEST(ScorerNaiveReferenceTest, TrussValuesMatchDefinition) {
  for (uint64_t seed : {1ull, 5ull}) {
    const Graph g = gen::ErdosRenyiGnp(22, 0.35, seed);
    for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
      const Edge& uv = g.EdgeAt(e);
      EXPECT_EQ(core::TrussScorer().EdgeValues(g, uv.u, uv.v),
                NaiveTrussValues(g, uv.u, uv.v))
          << "edge {" << uv.u << "," << uv.v << "} seed " << seed;
    }
  }
}

TEST(ScorerNaiveReferenceTest, EgoBetweennessMatchesFormula) {
  for (uint64_t seed : {2ull, 6ull}) {
    const Graph g = gen::ErdosRenyiGnm(40, 160, seed);
    const FrozenEsdIndex frozen =
        BuildFrozenIndex(g, core::EgoBetweennessScorer());
    for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
      const Edge& uv = g.EdgeAt(e);
      const std::vector<VertexId> common =
          graph::CommonNeighbors(g, uv.u, uv.v);
      const uint64_t s = common.size();
      uint64_t intra = 0;
      for (size_t i = 0; i < common.size(); ++i) {
        for (size_t j = i + 1; j < common.size(); ++j) {
          intra += g.HasEdge(common[i], common[j]) ? 1 : 0;
        }
      }
      const uint32_t b = static_cast<uint32_t>(s * (s - 1) / 2 - intra);
      EXPECT_EQ(frozen.ScoreOf(e, 1), b);
      if (b > 0) {
        EXPECT_EQ(frozen.ScoreOf(e, b), b);
        EXPECT_EQ(frozen.ScoreOf(e, b + 1), 0u);
      }
    }
  }
}

TEST(ScorerDynamicTest, ChurnKeepsTrussIndexExact) {
  const uint32_t n = 36;
  Graph g = gen::ErdosRenyiGnm(n, 90, 11);
  DynamicEsdIndex dyn(g, core::TrussScorer());
  std::set<std::pair<VertexId, VertexId>> edges;
  for (const Edge& e : g.Edges()) edges.emplace(e.u, e.v);

  util::Rng rng(0x5C07);
  for (int step = 0; step < 80; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (rng.NextBool(0.6)) {
      if (dyn.InsertEdge(u, v)) edges.emplace(u, v);
    } else {
      if (dyn.DeleteEdge(u, v)) edges.erase({u, v});
    }
  }

  std::vector<Edge> final_edges;
  for (const auto& [u, v] : edges) final_edges.push_back(Edge{u, v});
  const Graph final_graph = Graph::FromEdges(n, std::move(final_edges));
  const ScorerOnlineEngine ref(final_graph, core::TrussScorer());
  EXPECT_EQ(dyn.Scorer(), ScorerKind::kTruss);
  for (uint32_t tau : {1u, 2u, 3u}) {
    for (uint32_t k : {5u, 20u}) {
      EXPECT_EQ(Scores(ref.Query(k, tau)), Scores(dyn.Query(k, tau)))
          << "tau " << tau << " k " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Scorer-stamped index files.
// ---------------------------------------------------------------------------

TEST(ScorerIndexIoTest, RoundTripCarriesScorerKind) {
  const Graph g = gen::ErdosRenyiGnm(30, 70, 4);
  const EsdIndex treap = BuildIndex(g, core::TrussScorer());
  const FrozenEsdIndex frozen = BuildFrozenIndex(g, core::TrussScorer());

  // The treap engine persists as Freeze -> file -> Thaw.
  const EsdIndex treap2 = test::TreapFileRoundTrip(treap);
  EXPECT_EQ(treap2.Scorer(), ScorerKind::kTruss);
  test::ExpectIndexesEqual(treap, treap2);

  std::stringstream frozen_stream;
  std::string error;
  ASSERT_TRUE(core::SerializeFrozenIndex(frozen, frozen_stream, &error))
      << error;
  FrozenEsdIndex frozen2;
  const IndexIoResult res =
      core::DeserializeFrozenIndex(frozen_stream, &frozen2, ScorerKind::kTruss);
  ASSERT_TRUE(res) << res.message;
  EXPECT_EQ(frozen2.Scorer(), ScorerKind::kTruss);
  EXPECT_TRUE(frozen == frozen2);
}

TEST(ScorerIndexIoTest, CheckedLoadAcceptsMatchRejectsMismatch) {
  const Graph g = gen::ErdosRenyiGnm(25, 60, 8);
  const std::string dir = fs::temp_directory_path() /
                          ("esd_scorer_io_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string treap_path = dir + "/treap.bin";
  const std::string frozen_path = dir + "/frozen.bin";

  std::string error;
  const EsdIndex built = BuildIndex(g, core::TrussScorer());
  ASSERT_TRUE(core::SaveFrozenIndex(core::Freeze(built), treap_path, &error))
      << error;
  ASSERT_TRUE(core::SaveFrozenIndex(BuildFrozenIndex(g, core::TrussScorer()),
                                    frozen_path, &error))
      << error;

  FrozenEsdIndex loaded;
  FrozenEsdIndex frozen;
  EXPECT_TRUE(core::LoadFrozenIndex(treap_path, &loaded, ScorerKind::kTruss));
  test::ExpectIndexesEqual(built, core::Thaw(loaded));
  EXPECT_TRUE(
      core::LoadFrozenIndex(frozen_path, &frozen, ScorerKind::kTruss));

  const IndexIoResult treap_miss =
      core::LoadFrozenIndex(treap_path, &loaded, ScorerKind::kEgoBetweenness);
  EXPECT_FALSE(treap_miss);
  EXPECT_EQ(treap_miss.status, IndexIoStatus::kScorerMismatch);
  EXPECT_NE(treap_miss.message.find("truss"), std::string::npos);
  EXPECT_NE(treap_miss.message.find("egobw"), std::string::npos);

  const IndexIoResult frozen_miss =
      core::LoadFrozenIndex(frozen_path, &frozen, ScorerKind::kEsd);
  EXPECT_FALSE(frozen_miss);
  EXPECT_EQ(frozen_miss.status, IndexIoStatus::kScorerMismatch);

  const IndexIoResult missing =
      core::LoadFrozenIndex(dir + "/nope.bin", &frozen, ScorerKind::kTruss);
  EXPECT_FALSE(missing);
  EXPECT_EQ(missing.status, IndexIoStatus::kIoError);

  fs::remove_all(dir);
}

/// Fuzz the 4-byte scorer-id field (bytes 8..11, right after magic +
/// version) of a serialized index stream. Garbage ids must fail typed as
/// kUnknownScorer; a *valid but different* id must trip the checksum
/// (kFormatError) — the stamp is checksummed, so it cannot be quietly
/// rewritten; and only a well-formed foreign file yields kScorerMismatch.
TEST(ScorerIndexIoTest, GarbageScorerIdFuzz) {
  const Graph g = gen::ErdosRenyiGnm(20, 45, 5);
  std::string error;
  std::stringstream ss;
  ASSERT_TRUE(core::SerializeFrozenIndex(BuildFrozenIndex(g, core::TrussScorer()),
                                         ss, &error))
      << error;
  const std::string good = ss.str();
  ASSERT_GT(good.size(), 12u);

  for (uint32_t raw : {0u, 4u, 5u, 255u, 0x7FFFFFFFu, 0x80000000u,
                       0xDEADBEEFu, 0xFFFFFFFFu}) {
    std::string bad = good;
    std::memcpy(&bad[8], &raw, sizeof(raw));
    std::stringstream in(bad);
    FrozenEsdIndex out;
    const IndexIoResult res =
        core::DeserializeFrozenIndex(in, &out, ScorerKind::kTruss);
    EXPECT_FALSE(res) << "raw id " << raw;
    EXPECT_EQ(res.status, IndexIoStatus::kUnknownScorer) << raw;
    EXPECT_NE(res.message.find("scorer"), std::string::npos);
  }

  // Patch in kEsd (valid id, wrong scorer): the checksum covers the field,
  // so this reads as corruption, not as an ESD file.
  {
    std::string forged = good;
    const uint32_t esd_id = static_cast<uint32_t>(ScorerKind::kEsd);
    std::memcpy(&forged[8], &esd_id, sizeof(esd_id));
    std::stringstream in(forged);
    FrozenEsdIndex out;
    const IndexIoResult res =
        core::DeserializeFrozenIndex(in, &out, ScorerKind::kEsd);
    EXPECT_FALSE(res);
    EXPECT_EQ(res.status, IndexIoStatus::kFormatError);
  }

  // Truncation inside the scorer field itself fails gracefully.
  for (size_t keep : {8u, 9u, 11u}) {
    std::stringstream in(good.substr(0, keep));
    FrozenEsdIndex out;
    const IndexIoResult res =
        core::DeserializeFrozenIndex(in, &out, ScorerKind::kTruss);
    EXPECT_FALSE(res) << "keep " << keep;
    EXPECT_EQ(res.status, IndexIoStatus::kFormatError);
  }
}

// ---------------------------------------------------------------------------
// Live/WAL round trip for a non-ESD scorer.
// ---------------------------------------------------------------------------

TEST(ScorerLiveTest, TrussIndexSurvivesWalRoundTrip) {
  const uint32_t n = 30;
  const Graph bootstrap = gen::ErdosRenyiGnm(n, 60, 13);
  const std::string dir = fs::temp_directory_path() /
                          ("esd_scorer_live_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  live::LiveOptions options;
  options.wal_path = dir + "/wal.bin";
  options.snapshot_path = dir + "/snapshot.bin";
  options.scorer = ScorerKind::kTruss;
  options.refreeze_every = 8;

  std::set<std::pair<VertexId, VertexId>> edges;
  for (const Edge& e : bootstrap.Edges()) edges.emplace(e.u, e.v);

  std::string error;
  std::vector<uint32_t> before_scores;
  {
    std::unique_ptr<live::LiveEsdIndex> live =
        live::LiveEsdIndex::Open(bootstrap, options, &error);
    ASSERT_NE(live, nullptr) << error;

    util::Rng rng(0xBEEF);
    std::vector<live::LiveUpdate> batch;
    for (int step = 0; step < 50; ++step) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      live::LiveUpdate up;
      up.u = u;
      up.v = v;
      if (rng.NextBool(0.65)) {
        up.kind = live::UpdateKind::kInsert;
        edges.emplace(u, v);
      } else {
        up.kind = live::UpdateKind::kDelete;
        edges.erase({u, v});
      }
      batch.push_back(up);
    }
    ASSERT_EQ(live->ApplyBatch(batch, &error), batch.size()) << error;
    ASSERT_TRUE(live->RefreezeNow());
    auto engine = live->CurrentEngine();
    EXPECT_EQ(engine->Scorer(), ScorerKind::kTruss);
    before_scores = Scores(engine->Query(15, 2));
    // One checkpoint so the reopen exercises snapshot + WAL, both stamped.
    ASSERT_TRUE(live->Checkpoint(&error)) << error;
  }

  // Reopen under the same scorer: recovered answers must match both the
  // pre-close engine and a from-scratch build on the mirrored final graph.
  {
    std::unique_ptr<live::LiveEsdIndex> live =
        live::LiveEsdIndex::Open(bootstrap, options, &error);
    ASSERT_NE(live, nullptr) << error;
    auto engine = live->CurrentEngine();
    EXPECT_EQ(engine->Scorer(), ScorerKind::kTruss);
    EXPECT_EQ(Scores(engine->Query(15, 2)), before_scores);

    std::vector<Edge> final_edges;
    for (const auto& [u, v] : edges) final_edges.push_back(Edge{u, v});
    const Graph final_graph = Graph::FromEdges(n, std::move(final_edges));
    const ScorerOnlineEngine ref(final_graph, core::TrussScorer());
    for (uint32_t tau : {1u, 2u, 3u}) {
      EXPECT_EQ(Scores(ref.Query(12, tau)), Scores(engine->Query(12, tau)))
          << "tau " << tau;
    }
  }

  // Reopening the same directory under another scorer must fail typed —
  // both artifacts carry the truss stamp.
  {
    live::LiveOptions wrong = options;
    wrong.scorer = ScorerKind::kEsd;
    std::unique_ptr<live::LiveEsdIndex> live =
        live::LiveEsdIndex::Open(bootstrap, wrong, &error);
    EXPECT_EQ(live, nullptr);
    EXPECT_NE(error.find("scorer mismatch"), std::string::npos) << error;
  }

  fs::remove_all(dir);
}

TEST(ScorerProfileTest, HistogramIsScorerGeneric) {
  const Graph g = gen::ErdosRenyiGnm(40, 110, 17);
  const FrozenEsdIndex frozen = BuildFrozenIndex(g, core::TrussScorer());
  const ScorerOnlineEngine ref(g, core::TrussScorer());
  for (uint32_t tau : {1u, 2u, 3u}) {
    const core::ScoreHistogram hist = core::ComputeScoreHistogram(frozen, tau);
    std::vector<uint64_t> want;
    for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
      const uint32_t s = ref.ScoreOf(e, tau);
      if (s >= want.size()) want.resize(s + 1, 0);
      ++want[s];
    }
    ASSERT_EQ(hist.count.size(), want.size());
    EXPECT_EQ(hist.count, want);
    EXPECT_EQ(hist.total_edges, g.NumEdges());
    EXPECT_EQ(core::ScorePercentile(hist, 0.0), 0u);
    EXPECT_EQ(core::ScorePercentile(hist, 1.0), hist.max_score);
  }
}

}  // namespace
}  // namespace esd
