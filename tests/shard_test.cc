// Sharded serving engine (src/shard/): the hash partition, the filtered
// slab walk's exact parity with the unsharded canonical answer, the
// early-exit drain bound, the fleet tally surfaced through
// EsdQueryService, a fleet over one live writer, and the wire round trips
// the shard counts ride on (plus the refusal of the retired layouts
// without them).
//
// Fault-driven behavior (shard probe errors, stall breakers, queries
// during a stalled write) lives in chaos_test.cc — this suite covers
// everything that must hold with no fault armed.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
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
  fs::path Sub(const std::string& name) const { return dir_ / name; }

 private:
  fs::path dir_;
};

ShardedOptions ShardOptions(uint32_t num_shards) {
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

// ---- Merge parity ------------------------------------------------------------

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
          ShardedQueryEngine::BuildStatic(zoo[gi], ShardOptions(shards));
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
      ShardedQueryEngine::BuildStatic(g, ShardOptions(shards));
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
      ShardedQueryEngine::BuildStatic(g, ShardOptions(3));
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
      ShardedQueryEngine::BuildStatic(g, ShardOptions(3));
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
      ShardedQueryEngine::BuildStatic(g, ShardOptions(2));
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

live::LiveOptions WriterOptions(const ScratchDir& dir) {
  live::LiveOptions options;
  options.wal_path = dir.Sub("wal.bin").string();
  options.snapshot_path = dir.Sub("snapshot.bin").string();
  options.max_vertex_id = 255;
  return options;
}

TEST(ShardLiveTest, OneWriterFleetMatchesUnshardedReference) {
  ScratchDir dir("live_parity");
  const graph::Graph bootstrap = gen::BarabasiAlbert(70, 3, 11);
  std::string error;
  std::unique_ptr<live::LiveEsdIndex> writer =
      live::LiveEsdIndex::Open(bootstrap, WriterOptions(dir), &error);
  ASSERT_NE(writer, nullptr) << error;
  auto engine =
      std::make_unique<ShardedQueryEngine>(*writer, ShardOptions(3));
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
  const uint64_t epoch_before = engine->epoch();
  ASSERT_EQ(writer->ApplyBatch(updates, &error), updates.size()) << error;
  for (const live::LiveUpdate& u : updates) ApplyToShadow(&shadow, u);

  // The fleet serves whatever the one writer publishes: a refreeze moves
  // its epoch and its generation (the result-cache key).
  ASSERT_TRUE(writer->RefreezeNow());
  EXPECT_GT(engine->epoch(), epoch_before);
  EXPECT_GT(engine->Generation(), gen_before);

  // Exact parity: an unsharded live index replaying the same history
  // assigns the same edge-id slots, so the fleet's answer must match it
  // edge for edge (same canonical order, same padding fill). The
  // fresh-build comparison covers the scores — its edge-id layout
  // legitimately differs after deletions.
  ScratchDir ref_dir("live_parity_ref");
  std::unique_ptr<live::LiveEsdIndex> reference =
      live::LiveEsdIndex::Open(bootstrap, WriterOptions(ref_dir), &error);
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

  // The writer recovers to the same answers from disk, and a fleet over
  // the reopened writer serves them.
  engine.reset();
  writer.reset();
  writer = live::LiveEsdIndex::Open(bootstrap, WriterOptions(dir), &error);
  ASSERT_NE(writer, nullptr) << error;
  engine = std::make_unique<ShardedQueryEngine>(*writer, ShardOptions(3));
  EXPECT_EQ(engine->Counts().ok, 3u);
  const serve::ShardedOutcome got = engine->Execute(16, 2, true, kFarDeadline);
  EXPECT_EQ(got.result, ref_engine->Query(16, 2));
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
