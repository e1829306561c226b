// Sharded serving engine (src/shard/): the hash partition, the filtered
// per-shard serving images, the scatter-gather merge's exact parity with
// the unsharded canonical answer, the early-exit drain bound, the fleet
// tally surfaced through EsdQueryService, and the wire round trips the
// shard counts ride on (plus the refusal of the retired layouts without
// them).
//
// Fault-driven behavior (stall breakers, WAL outages quarantining one
// shard, heal catch-up under injected errors) lives in chaos_test.cc —
// this suite covers everything that must hold with no fault armed.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/topk_result.h"
#include "gen/barabasi_albert.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "live/live_index.h"
#include "net/wire.h"
#include "serve/query_service.h"
#include "shard/partition.h"
#include "shard/sharded_engine.h"
#include "util/rng.h"

namespace esd {
namespace {

namespace fs = std::filesystem;

using core::FrozenEsdIndex;
using core::TopKResult;
using shard::ShardedOptions;
using shard::ShardedQueryEngine;

constexpr auto kFarDeadline = std::chrono::steady_clock::time_point::max();

/// A fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("esd_shard_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string Root() const { return dir_.string(); }
  fs::path Sub(const std::string& name) const { return dir_ / name; }

 private:
  fs::path dir_;
};

ShardedOptions StaticOptions(uint32_t num_shards) {
  ShardedOptions options;
  options.num_shards = num_shards;
  return options;
}

// ---- Partition function ----------------------------------------------------

TEST(ShardPartitionTest, OrientationInvariantAndSingleShardDegenerate) {
  util::Rng rng(0x9A27);
  for (int i = 0; i < 500; ++i) {
    const auto u = static_cast<graph::VertexId>(rng.NextBounded(1u << 20));
    auto v = static_cast<graph::VertexId>(rng.NextBounded(1u << 20));
    if (u == v) v += 1;
    EXPECT_EQ(shard::ShardOfEdge(graph::Edge{u, v}, 4),
              shard::ShardOfEdge(graph::Edge{v, u}, 4));
    EXPECT_EQ(shard::ShardOfEdge(graph::Edge{u, v}, 1), 0u);
    EXPECT_EQ(shard::ShardOfEdge(graph::Edge{u, v}, 0), 0u);
  }
}

TEST(ShardPartitionTest, SpreadsEdgesAcrossShards) {
  const uint32_t num_shards = 8;
  std::vector<uint64_t> per_shard(num_shards, 0);
  util::Rng rng(0x51AB);
  const uint64_t total = 8000;
  for (uint64_t i = 0; i < total; ++i) {
    const auto u = static_cast<graph::VertexId>(rng.NextBounded(1u << 16));
    auto v = static_cast<graph::VertexId>(rng.NextBounded(1u << 16));
    if (u == v) v += 1;
    per_shard[shard::ShardOfEdge(graph::Edge{u, v}, num_shards)]++;
  }
  // splitmix64 over the packed endpoints: every shard should land within
  // a loose factor of the uniform share (binomial tails make 2x generous).
  const uint64_t fair = total / num_shards;
  for (uint32_t s = 0; s < num_shards; ++s) {
    EXPECT_GT(per_shard[s], fair / 2) << "shard " << s << " starved";
    EXPECT_LT(per_shard[s], fair * 2) << "shard " << s << " overloaded";
  }
}

TEST(ShardPartitionTest, OwnsFiltersFormExactPartition) {
  const uint32_t num_shards = 5;
  std::vector<std::function<bool(graph::Edge)>> filters;
  for (uint32_t s = 0; s < num_shards; ++s) {
    filters.push_back(shard::OwnsFilter(s, num_shards));
  }
  const graph::Graph g = gen::BarabasiAlbert(200, 3, 77);
  for (const graph::Edge& e : g.Edges()) {
    uint32_t owners = 0;
    for (const auto& f : filters) owners += f(e) ? 1 : 0;
    EXPECT_EQ(owners, 1u) << "edge (" << e.u << "," << e.v
                          << ") owned by " << owners << " shards";
  }
}

// ---- Filtered serving images -----------------------------------------------

TEST(ShardFilterTest, FilteredImagePreservesSlotLayoutAndKeptScores) {
  const graph::Graph g = gen::BarabasiAlbert(120, 3, 31);
  const FrozenEsdIndex full = core::BuildFrozenIndex(g);
  const auto keep = shard::OwnsFilter(1, 3);
  const FrozenEsdIndex filtered = core::FilterFrozenIndex(full, keep);

  // Slot layout is preserved exactly: same slot count, same edge at every
  // slot — this is what makes edge-id tie-breaks and the padding order
  // line up across differently-filtered images.
  ASSERT_EQ(filtered.EdgeSlotCount(), full.EdgeSlotCount());
  size_t kept = 0;
  for (graph::EdgeId e = 0; e < full.EdgeSlotCount(); ++e) {
    EXPECT_EQ(filtered.EdgeAt(e), full.EdgeAt(e));
    if (!full.IsLive(e)) continue;
    if (keep(full.EdgeAt(e))) {
      ++kept;
      ASSERT_TRUE(filtered.IsLive(e));
      // The ownership guarantee the merge proof rests on: a kept edge's
      // multiset — hence its score at every tau — is untouched by masking
      // the other shards' edges.
      const auto full_sizes = full.EdgeSizes(e);
      const auto filt_sizes = filtered.EdgeSizes(e);
      ASSERT_EQ(std::vector<uint32_t>(filt_sizes.begin(), filt_sizes.end()),
                std::vector<uint32_t>(full_sizes.begin(), full_sizes.end()));
      for (uint32_t tau : {1u, 2u, 4u}) {
        EXPECT_EQ(filtered.ScoreOf(e, tau), full.ScoreOf(e, tau));
      }
    } else {
      EXPECT_FALSE(filtered.IsLive(e));
      EXPECT_TRUE(filtered.EdgeSizes(e).empty());
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, full.NumRegisteredEdges());
  EXPECT_EQ(filtered.NumRegisteredEdges(), kept);
}

// ---- Scatter-gather merge parity -------------------------------------------

TEST(ShardMergeTest, StaticParityAcrossGraphsAndShardCounts) {
  const std::vector<graph::Graph> zoo = {
      gen::BarabasiAlbert(60, 2, 7),
      gen::BarabasiAlbert(120, 3, 19),
      gen::BarabasiAlbert(200, 4, 43),
  };
  for (size_t gi = 0; gi < zoo.size(); ++gi) {
    const FrozenEsdIndex full = core::BuildFrozenIndex(zoo[gi]);
    for (uint32_t shards : {2u, 3u, 5u}) {
      const std::unique_ptr<ShardedQueryEngine> engine =
          ShardedQueryEngine::BuildStatic(zoo[gi], StaticOptions(shards));
      ASSERT_NE(engine, nullptr);
      EXPECT_EQ(engine->Counts().ok, shards);
      for (uint32_t tau : {1u, 2u, 3u, 5u, 9u}) {
        for (uint32_t k : {1u, 4u, 16u, 64u, 400u}) {
          for (bool pad : {false, true}) {
            const TopKResult want = full.Query(k, tau, pad);
            const serve::ShardedOutcome got =
                engine->Execute(k, tau, pad, kFarDeadline);
            EXPECT_FALSE(got.deadline_expired);
            // Not just the score multiset: the merge must reproduce the
            // canonical (score desc, edge id asc) answer edge for edge.
            EXPECT_EQ(got.result, want)
                << "graph " << gi << " shards=" << shards << " k=" << k
                << " tau=" << tau << " pad=" << pad;
          }
        }
      }
    }
  }
}

TEST(ShardMergeTest, DrainedEntriesRespectEarlyExitBound) {
  const graph::Graph g = gen::BarabasiAlbert(150, 3, 57);
  const uint32_t shards = 4;
  const std::unique_ptr<ShardedQueryEngine> engine =
      ShardedQueryEngine::BuildStatic(g, StaticOptions(shards));
  ASSERT_NE(engine, nullptr);
  for (uint32_t tau : {1u, 2u, 4u}) {
    for (uint32_t k : {1u, 8u, 32u}) {
      const serve::ShardedOutcome got =
          engine->Execute(k, tau, /*pad_with_zero_edges=*/false, kFarDeadline);
      // Each non-winning shard contributes at most one peeked-but-
      // unconsumed head; consumed entries are bounded by the answer size.
      EXPECT_LE(got.drained_entries, got.result.size() + (shards - 1))
          << "k=" << k << " tau=" << tau;
    }
  }
}

TEST(ShardMergeTest, ExpiredDeadlineReturnsDeadlineExpired) {
  const graph::Graph g = gen::BarabasiAlbert(80, 3, 91);
  const std::unique_ptr<ShardedQueryEngine> engine =
      ShardedQueryEngine::BuildStatic(g, StaticOptions(3));
  ASSERT_NE(engine, nullptr);
  const serve::ShardedOutcome got = engine->Execute(
      16, 1, true, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(got.deadline_expired);
}

// ---- Service integration ---------------------------------------------------

TEST(ShardServiceTest, ResponsesCarryFleetTallyAndStrictPassesWhenAllOk) {
  const graph::Graph g = gen::BarabasiAlbert(100, 3, 23);
  const FrozenEsdIndex full = core::BuildFrozenIndex(g);
  const std::unique_ptr<ShardedQueryEngine> engine =
      ShardedQueryEngine::BuildStatic(g, StaticOptions(3));
  ASSERT_NE(engine, nullptr);
  serve::EsdQueryService::Options options;
  options.num_threads = 2;
  serve::EsdQueryService service(*engine, options);

  serve::QueryRequest rq;
  rq.k = 10;
  rq.tau = 2;
  for (const bool strict : {false, true}) {
    rq.strict = strict;
    const serve::QueryResponse resp = service.Query(rq);
    ASSERT_EQ(resp.status, serve::ResponseStatus::kOk) << "strict=" << strict;
    EXPECT_EQ(resp.shards_ok, 3u);
    EXPECT_EQ(resp.shards_degraded, 0u);
    EXPECT_EQ(resp.shards_down, 0u);
    EXPECT_EQ(resp.result, full.Query(rq.k, rq.tau));
  }
}

TEST(ShardServiceTest, GenerationKeyedCacheSurvivesFleetQueries) {
  const graph::Graph g = gen::BarabasiAlbert(90, 3, 67);
  const std::unique_ptr<ShardedQueryEngine> engine =
      ShardedQueryEngine::BuildStatic(g, StaticOptions(2));
  ASSERT_NE(engine, nullptr);
  serve::EsdQueryService::Options options;
  options.num_threads = 1;
  options.cache_bytes = 1u << 20;
  serve::EsdQueryService service(*engine, options);
  serve::QueryRequest rq;
  rq.k = 8;
  rq.tau = 2;
  const serve::QueryResponse miss = service.Query(rq);
  ASSERT_EQ(miss.status, serve::ResponseStatus::kOk);
  const serve::QueryResponse hit = service.Query(rq);
  ASSERT_EQ(hit.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(hit.result, miss.result);
  ASSERT_NE(service.cache(), nullptr);
  EXPECT_GE(service.cache()->Snap().hits, 1u);
  // Cached answers still carry the fleet tally of their serving batch.
  EXPECT_EQ(hit.shards_ok, 2u);
}

// ---- Live fleet ------------------------------------------------------------

/// Applies the same updates to a shadow graph the way the live index does.
void ApplyToShadow(graph::DynamicGraph* g, const live::LiveUpdate& u) {
  const graph::VertexId hi = std::max(u.u, u.v);
  if (u.kind == live::UpdateKind::kInsert) {
    while (g->NumVertices() <= hi) g->AddVertex();
    g->InsertEdge(u.u, u.v);
  } else if (hi < g->NumVertices()) {
    g->EraseEdge(u.u, u.v);
  }
}

ShardedOptions LiveOptions(const ScratchDir& dir, uint32_t num_shards) {
  ShardedOptions options;
  options.num_shards = num_shards;
  options.dir = dir.Root();
  options.max_vertex_id = 255;
  options.wal_retry.max_attempts = 2;
  options.wal_retry.base_delay = std::chrono::microseconds(0);
  options.heal_retry_interval = std::chrono::milliseconds(2);
  return options;
}

TEST(ShardLiveTest, BroadcastWritesReachEveryShardAndMergeMatchesReference) {
  ScratchDir dir("live_parity");
  const graph::Graph bootstrap = gen::BarabasiAlbert(70, 3, 11);
  std::string error;
  std::unique_ptr<ShardedQueryEngine> engine =
      ShardedQueryEngine::Open(bootstrap, LiveOptions(dir, 3), &error);
  ASSERT_NE(engine, nullptr) << error;
  ASSERT_TRUE(engine->live_mode());
  EXPECT_EQ(engine->Counts().ok, 3u);

  graph::DynamicGraph shadow(bootstrap);
  util::Rng rng(0xD1CE);
  std::vector<live::LiveUpdate> updates;
  for (int i = 0; i < 40; ++i) {
    live::LiveUpdate u;
    u.kind = rng.NextBool(0.7) ? live::UpdateKind::kInsert
                               : live::UpdateKind::kDelete;
    u.u = static_cast<graph::VertexId>(rng.NextBounded(90));
    do {
      u.v = static_cast<graph::VertexId>(rng.NextBounded(90));
    } while (u.v == u.u);
    updates.push_back(u);
  }
  const uint64_t gen_before = engine->Generation();
  const live::ApplyResult applied =
      engine->ApplyBatchTyped({updates.data(), updates.size()});
  EXPECT_EQ(applied.status, live::ApplyStatus::kOk) << applied.message;
  EXPECT_EQ(applied.processed, updates.size());
  for (const live::LiveUpdate& u : updates) ApplyToShadow(&shadow, u);

  // Every shard's writer applied the full batch (broadcast semantics).
  for (const shard::ShardStatus& st : engine->Status()) {
    EXPECT_EQ(st.state, "ok") << "shard " << st.id << ": " << st.down_reason;
    EXPECT_EQ(st.wal_applied_seq, updates.size());
    EXPECT_EQ(st.journal_lag, 0u);
  }

  // Exact parity: an unsharded live index replaying the same history
  // assigns the same edge-id slots, so after both quiesce the merged
  // answer must match it edge for edge (same canonical order, same
  // padding fill). The fresh-build comparison below covers the scores —
  // its edge-id layout legitimately differs after deletions.
  ASSERT_TRUE(engine->RefreezeAll());
  EXPECT_GT(engine->Generation(), gen_before);
  ScratchDir ref_dir("live_parity_ref");
  live::LiveOptions ref_options;
  ref_options.wal_path = ref_dir.Sub("wal.log").string();
  ref_options.snapshot_path = ref_dir.Sub("snapshot.bin").string();
  ref_options.max_vertex_id = 255;
  std::unique_ptr<live::LiveEsdIndex> reference =
      live::LiveEsdIndex::Open(bootstrap, ref_options, &error);
  ASSERT_NE(reference, nullptr) << error;
  ASSERT_EQ(reference->ApplyBatch(updates, &error), updates.size()) << error;
  ASSERT_TRUE(reference->RefreezeNow());
  const auto ref_engine = reference->CurrentEngine();
  const FrozenEsdIndex rebuilt = core::BuildFrozenIndex(shadow.Snapshot());
  for (uint32_t tau : {1u, 2u, 3u}) {
    for (uint32_t k : {1u, 8u, 64u}) {
      const serve::ShardedOutcome got = engine->Execute(k, tau, true,
                                                        kFarDeadline);
      EXPECT_EQ(got.result, ref_engine->Query(k, tau))
          << "k=" << k << " tau=" << tau;
      EXPECT_EQ(core::Scores(got.result), core::Scores(rebuilt.Query(k, tau)))
          << "k=" << k << " tau=" << tau;
    }
  }

  // The fleet recovers to the same answers from disk.
  std::string reopen_error;
  engine.reset();
  engine = ShardedQueryEngine::Open(bootstrap, LiveOptions(dir, 3),
                                    &reopen_error);
  ASSERT_NE(engine, nullptr) << reopen_error;
  EXPECT_EQ(engine->Counts().ok, 3u);
  const serve::ShardedOutcome got = engine->Execute(16, 2, true, kFarDeadline);
  EXPECT_EQ(got.result, ref_engine->Query(16, 2));
}

TEST(ShardLiveTest, CorruptShardIsQuarantinedAtOpenOthersServe) {
  ScratchDir dir("quarantine");
  const graph::Graph bootstrap = gen::BarabasiAlbert(60, 3, 29);
  const uint32_t shards = 3;

  // Poison shard 1's WAL with a garbage header before the fleet opens.
  fs::create_directories(dir.Sub("shard-1"));
  {
    std::ofstream wal(dir.Sub("shard-1") / "wal.log", std::ios::binary);
    wal << "this is not an ESDW log";
  }

  std::string error;
  const std::unique_ptr<ShardedQueryEngine> engine =
      ShardedQueryEngine::Open(bootstrap, LiveOptions(dir, shards), &error);
  ASSERT_NE(engine, nullptr) << error;  // per-shard failure is not fatal

  const serve::ShardCounts counts = engine->Counts();
  EXPECT_EQ(counts.down, 1u);
  EXPECT_EQ(counts.ok, shards - 1);
  const std::vector<shard::ShardStatus> status = engine->Status();
  EXPECT_EQ(status[1].state, "down");
  EXPECT_NE(status[1].down_reason.find("open failed"), std::string::npos)
      << status[1].down_reason;
  EXPECT_EQ(engine->Health(), obs::HealthState::kDegraded);

  // Partial answers: exactly the healthy shards' edges, in canonical order
  // — the sub-answer of the full build restricted to shards 0 and 2.
  const FrozenEsdIndex full = core::BuildFrozenIndex(bootstrap);
  const auto f0 = shard::OwnsFilter(0, shards);
  const auto f2 = shard::OwnsFilter(2, shards);
  const serve::ShardedOutcome got =
      engine->Execute(1000, 2, /*pad_with_zero_edges=*/false, kFarDeadline);
  TopKResult want;
  for (const core::ScoredEdge& se : full.Query(1000, 2, false)) {
    if (f0(se.edge) || f2(se.edge)) want.push_back(se);
  }
  EXPECT_EQ(got.result, want);
  EXPECT_EQ(got.shards.down, 1u);

  // Strict queries through the service fail typed instead of narrowing.
  serve::EsdQueryService::Options options;
  options.num_threads = 1;
  serve::EsdQueryService service(*engine, options);
  serve::QueryRequest rq;
  rq.k = 8;
  rq.tau = 2;
  rq.strict = true;
  EXPECT_EQ(service.Query(rq).status,
            serve::ResponseStatus::kShardsUnavailable);
  rq.strict = false;
  const serve::QueryResponse partial = service.Query(rq);
  EXPECT_EQ(partial.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(partial.shards_down, 1u);
}

TEST(ShardLiveTest, StaticEngineRejectsWritesTyped) {
  const graph::Graph g = gen::BarabasiAlbert(50, 2, 13);
  const std::unique_ptr<ShardedQueryEngine> engine =
      ShardedQueryEngine::BuildStatic(g, StaticOptions(2));
  ASSERT_NE(engine, nullptr);
  live::LiveUpdate u;
  u.kind = live::UpdateKind::kInsert;
  u.u = 1;
  u.v = 2;
  const live::ApplyResult r = engine->ApplyBatchTyped({&u, 1});
  EXPECT_EQ(r.status, live::ApplyStatus::kDegraded);
  EXPECT_EQ(r.processed, 0u);
  EXPECT_NE(r.message.find("read-only"), std::string::npos) << r.message;
}

TEST(ShardLiveTest, OutOfBoundsBatchRejectedBeforeAnyShard) {
  ScratchDir dir("bounds");
  const graph::Graph bootstrap = gen::BarabasiAlbert(40, 2, 37);
  std::string error;
  const std::unique_ptr<ShardedQueryEngine> engine =
      ShardedQueryEngine::Open(bootstrap, LiveOptions(dir, 2), &error);
  ASSERT_NE(engine, nullptr) << error;
  std::vector<live::LiveUpdate> batch(2);
  batch[0].kind = live::UpdateKind::kInsert;
  batch[0].u = 1;
  batch[0].v = 2;
  batch[1].kind = live::UpdateKind::kInsert;
  batch[1].u = 3;
  batch[1].v = 1000;  // > max_vertex_id (255)
  const live::ApplyResult r =
      engine->ApplyBatchTyped({batch.data(), batch.size()});
  EXPECT_EQ(r.status, live::ApplyStatus::kBounds);
  EXPECT_EQ(r.processed, 0u);
  // Whole-batch precheck: not even the in-bounds prefix reached a WAL.
  for (const shard::ShardStatus& st : engine->Status()) {
    EXPECT_EQ(st.wal_applied_seq, 0u) << "shard " << st.id;
  }
}

// ---- Wire protocol ----------------------------------------------------------

TEST(ShardWireTest, QueryCarriesStrictAndV1PayloadIsRefused) {
  net::QueryFrame q;
  q.cid = 42;
  q.k = 7;
  q.tau = 3;
  q.pad_with_zero_edges = 0;
  q.deadline_us = 1234;
  q.strict = 1;
  const std::string frame = net::EncodeQuery(q);

  net::FrameDecoder decoder;
  decoder.Feed(frame);
  net::Frame out;
  ASSERT_EQ(decoder.Next(&out), net::WireStatus::kOk);
  net::QueryFrame round;
  ASSERT_EQ(net::DecodeQuery(out.payload, &round), net::WireStatus::kOk);
  EXPECT_EQ(round.cid, 42u);
  EXPECT_EQ(round.strict, 1u);
  EXPECT_EQ(round.deadline_us, 1234u);

  // The retired 25-byte payload (no strict byte) is not a query.
  ASSERT_EQ(out.payload.size(), 26u);
  net::QueryFrame v1;
  EXPECT_EQ(net::DecodeQuery(
                std::string_view(out.payload).substr(0, out.payload.size() - 1),
                &v1),
            net::WireStatus::kBadPayload);
}

TEST(ShardWireTest, QueryResultRoundTripsShardCounts) {
  net::QueryResultFrame r;
  r.cid = 9;
  r.status = 0;
  r.rid = 77;
  r.epoch = 5;
  r.shards_ok = 3;
  r.shards_degraded = 1;
  r.shards_down = 2;
  r.edges.push_back({1, 2, 10});
  r.edges.push_back({2, 3, 8});

  net::FrameDecoder decoder;
  decoder.Feed(net::EncodeQueryResult(r));
  net::Frame frame;
  ASSERT_EQ(decoder.Next(&frame), net::WireStatus::kOk);
  net::QueryResultFrame out;
  ASSERT_EQ(net::DecodeQueryResult(frame.payload, &out), net::WireStatus::kOk);
  EXPECT_EQ(out.shards_ok, 3u);
  EXPECT_EQ(out.shards_degraded, 1u);
  EXPECT_EQ(out.shards_down, 2u);
  ASSERT_EQ(out.edges.size(), 2u);
  EXPECT_EQ(out.edges[1].score, 8u);

  // The retired layout: the same result without the three u16 counts, a
  // 29-byte prefix. Every length a 35-byte prefix cannot explain is refused.
  ASSERT_EQ(frame.payload.size(), 35u + 2 * 12u);
  std::string v1 = frame.payload;
  v1.erase(25, 6);
  EXPECT_EQ(net::DecodeQueryResult(v1, &out), net::WireStatus::kBadPayload);
  r.edges.clear();
  decoder.Feed(net::EncodeQueryResult(r));
  ASSERT_EQ(decoder.Next(&frame), net::WireStatus::kOk);
  v1 = frame.payload;
  v1.erase(25, 6);
  EXPECT_EQ(net::DecodeQueryResult(v1, &out), net::WireStatus::kBadPayload);
}

}  // namespace
}  // namespace esd
