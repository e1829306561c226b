// EsdQueryService: many threads hammering one immutable FrozenEsdIndex
// must get exactly the single-threaded answers; bounded admission,
// deadlines, tau-batching, and the metrics layer must behave
// deterministically. The stress test here is the one the TSan CI job runs
// against the thread pool + service in combination.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/query_engine.h"
#include "core/topk_result.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "serve/metrics.h"
#include "serve/query_service.h"
#include "serve/result_cache.h"
#include "util/thread_pool.h"

namespace esd {
namespace {

using core::FrozenEsdIndex;
using core::TopKResult;
using obs::LatencyHistogram;
using serve::EsdQueryService;
using serve::MetricsSnapshot;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ResponseStatus;

TEST(ServeTest, StressParityAcrossThreads) {
  graph::Graph g = gen::BarabasiAlbert(150, 4, 3);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);

  // Single-threaded ground truth over a (k, tau) grid.
  std::vector<QueryRequest> cases;
  std::vector<TopKResult> want;
  for (uint32_t tau : {1u, 2u, 3u, 5u, 9u}) {
    for (uint32_t k : {1u, 4u, 16u, 64u}) {
      QueryRequest rq;
      rq.k = k;
      rq.tau = tau;
      cases.push_back(rq);
      want.push_back(frozen.Query(k, tau));
    }
  }

  EsdQueryService::Options opts;
  opts.num_threads = 4;
  opts.max_queue = 1 << 14;
  opts.max_batch = 16;
  EsdQueryService service(frozen, opts);

  constexpr int kClients = 8;
  constexpr int kRounds = 200;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const size_t idx = static_cast<size_t>(c * 31 + r * 7) % cases.size();
        QueryResponse resp = service.Submit(cases[idx]).get();
        if (resp.status != ResponseStatus::kOk) {
          failures.fetch_add(1);
        } else if (resp.result != want[idx]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const MetricsSnapshot snap = service.metrics().Snap();
  EXPECT_EQ(snap.accepted, static_cast<uint64_t>(kClients * kRounds));
  EXPECT_EQ(snap.completed, static_cast<uint64_t>(kClients * kRounds));
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.deadline_missed, 0u);
  EXPECT_GE(snap.batches, 1u);
  EXPECT_EQ(snap.total.count, snap.completed);
  EXPECT_GT(snap.total.p50_us, 0.0);
  EXPECT_LE(snap.total.p50_us, snap.total.p95_us);
  EXPECT_LE(snap.total.p95_us, snap.total.p99_us);
}

TEST(ServeTest, ParityAgainstEveryEngineKind) {
  // The service must answer identically over any engine implementation,
  // not just the frozen fast path.
  graph::Graph g = gen::ErdosRenyiGnm(40, 150, 17);
  for (const std::string& name : core::QueryEngineNames()) {
    std::string error;
    std::unique_ptr<core::EsdQueryEngine> engine =
        core::BuildQueryEngine(g, name, core::EsdScorer(), &error);
    ASSERT_NE(engine, nullptr) << error;
    EsdQueryService::Options opts;
    opts.num_threads = 2;
    EsdQueryService service(*engine, opts);
    for (uint32_t tau : {1u, 2u, 4u}) {
      QueryRequest rq;
      rq.k = 8;
      rq.tau = tau;
      QueryResponse resp = service.Query(rq);
      EXPECT_EQ(resp.status, ResponseStatus::kOk);
      EXPECT_EQ(resp.result, engine->Query(8, tau)) << name << " tau=" << tau;
    }
  }
}

TEST(ServeTest, BoundedAdmissionRejectsWhenQueueFull) {
  graph::Graph g = gen::ErdosRenyiGnm(20, 60, 5);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.max_queue = 2;
  opts.start_paused = true;  // nothing drains: the backlog is deterministic
  EsdQueryService service(frozen, opts);

  std::future<QueryResponse> a = service.Submit({});
  std::future<QueryResponse> b = service.Submit({});
  QueryResponse rejected = service.Submit({}).get();  // queue is full
  EXPECT_EQ(rejected.status, ResponseStatus::kRejectedQueueFull);
  EXPECT_TRUE(rejected.result.empty());

  MetricsSnapshot snap = service.metrics().Snap();
  EXPECT_EQ(snap.accepted, 2u);
  EXPECT_EQ(snap.rejected, 1u);

  service.Start();
  EXPECT_EQ(a.get().status, ResponseStatus::kOk);
  EXPECT_EQ(b.get().status, ResponseStatus::kOk);
}

TEST(ServeTest, DeadlineMissedInQueue) {
  graph::Graph g = gen::ErdosRenyiGnm(20, 60, 6);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.start_paused = true;
  EsdQueryService service(frozen, opts);

  QueryRequest hurried;
  hurried.deadline_us = 1000;  // 1 ms, spent entirely in the paused queue
  std::future<QueryResponse> missed = service.Submit(hurried);
  std::future<QueryResponse> unhurried = service.Submit({});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Start();

  EXPECT_EQ(missed.get().status, ResponseStatus::kDeadlineMissed);
  EXPECT_EQ(unhurried.get().status, ResponseStatus::kOk);
  MetricsSnapshot snap = service.metrics().Snap();
  EXPECT_EQ(snap.deadline_missed, 1u);
  EXPECT_EQ(snap.completed, 1u);
}

TEST(ServeTest, BatchingSharesSlabSearchAcrossEqualTaus) {
  graph::Graph g = gen::BarabasiAlbert(60, 3, 9);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.max_batch = 64;
  opts.start_paused = true;
  EsdQueryService service(frozen, opts);

  // 12 queries over 4 distinct taus, all queued before the single worker
  // starts: one batch, sorted by tau, 12 - 4 = 8 binary searches saved.
  std::vector<std::future<QueryResponse>> futures;
  std::vector<TopKResult> want;
  for (int rep = 0; rep < 3; ++rep) {
    for (uint32_t tau : {1u, 2u, 3u, 4u}) {
      QueryRequest rq;
      rq.k = 5;
      rq.tau = tau;
      futures.push_back(service.Submit(rq));
      want.push_back(frozen.Query(5, tau));
    }
  }
  service.Start();
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse resp = futures[i].get();
    EXPECT_EQ(resp.status, ResponseStatus::kOk);
    EXPECT_EQ(resp.result, want[i]) << "i=" << i;
  }
  MetricsSnapshot snap = service.metrics().Snap();
  EXPECT_EQ(snap.completed, 12u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.slab_searches_saved, 8u);
}

TEST(ServeTest, StopDrainsAdmittedAndBouncesLate) {
  graph::Graph g = gen::ErdosRenyiGnm(25, 80, 7);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 2;
  EsdQueryService service(frozen, opts);
  std::vector<std::future<QueryResponse>> admitted;
  for (int i = 0; i < 50; ++i) admitted.push_back(service.Submit({}));
  service.Stop();
  for (auto& f : admitted) {
    EXPECT_EQ(f.get().status, ResponseStatus::kOk);  // graceful drain
  }
  EXPECT_EQ(service.Submit({}).get().status, ResponseStatus::kShutdown);
}

TEST(ServeTest, CacheHitsAnswerInlineWithOneOutcomeEach) {
  graph::Graph g = gen::BarabasiAlbert(60, 3, 19);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.cache_bytes = 1 << 20;
  EsdQueryService service(frozen, opts);
  QueryRequest rq;
  rq.k = 7;
  rq.tau = 2;
  const TopKResult want = frozen.Query(rq.k, rq.tau);

  // A miss at admission goes to the ring, and the worker does not count a
  // second miss for it.
  EXPECT_EQ(service.Query(rq).result, want);
  serve::ResultCache::Stats cache = service.cache()->Snap();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 0u);

  // Hits complete on the submitting thread.
  const std::thread::id caller = std::this_thread::get_id();
  for (int i = 0; i < 3; ++i) {
    std::thread::id ran_on;
    TopKResult got;
    service.SubmitAsync(rq, [&](QueryResponse resp) {
      ran_on = std::this_thread::get_id();
      got = std::move(resp.result);
    });
    EXPECT_EQ(ran_on, caller);
    EXPECT_EQ(got, want);
  }
  cache = service.cache()->Snap();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 3u);
  MetricsSnapshot snap = service.metrics().Snap();
  EXPECT_EQ(snap.inline_hits, 3u);
  EXPECT_EQ(snap.accepted, 4u);
  EXPECT_EQ(snap.completed, 4u);
  EXPECT_EQ(snap.batches, 1u);  // only the miss reached a worker

  // After Stop() a cached key bounces like any other request.
  service.Stop();
  EXPECT_EQ(service.Submit(rq).get().status, ResponseStatus::kShutdown);
  EXPECT_EQ(service.metrics().Snap().inline_hits, 3u);
}

TEST(ServeTest, StopWaitsForInlineHitCallback) {
  graph::Graph g = gen::BarabasiAlbert(60, 3, 23);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.cache_bytes = 1 << 20;
  EsdQueryService service(frozen, opts);
  QueryRequest rq;
  rq.k = 5;
  rq.tau = 1;
  ASSERT_EQ(service.Query(rq).status, ResponseStatus::kOk);  // warms the key

  std::promise<void> latch;
  std::shared_future<void> released = latch.get_future().share();
  std::atomic<bool> entered{false};
  std::atomic<bool> stopped{false};
  obs::CacheOutcome outcome = obs::CacheOutcome::kNone;
  std::thread submitter([&] {
    service.SubmitAsync(rq, [&](QueryResponse resp) {
      outcome = resp.ctx.cache;
      entered.store(true);
      released.wait();
    });
  });
  while (!entered.load()) std::this_thread::yield();
  std::thread stopper([&] {
    service.Stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load()) << "Stop() returned under a running callback";
  latch.set_value();
  stopper.join();
  EXPECT_TRUE(stopped.load());
  submitter.join();
  EXPECT_EQ(outcome, obs::CacheOutcome::kHit);
}

TEST(ServeTest, InlineHitsRaceEpochPublishes) {
  // Three distinct images; epoch e serves images[e % 3].
  std::vector<std::shared_ptr<const FrozenEsdIndex>> images;
  for (uint64_t seed : {31u, 32u, 33u}) {
    images.push_back(std::make_shared<const FrozenEsdIndex>(
        core::BuildFrozenIndex(gen::BarabasiAlbert(70, 3, seed))));
  }
  std::atomic<uint64_t> epoch{0};
  EsdQueryService::Options opts;
  opts.num_threads = 2;
  opts.cache_bytes = 1 << 20;
  EsdQueryService service(
      EsdQueryService::EpochEngineProvider(
          [&]() -> EsdQueryService::PinnedEngine {
            const uint64_t e = epoch.load();
            return {images[e % images.size()], e};
          }),
      opts);

  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (uint64_t e = 1; !done.load(); ++e) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      epoch.store(e);
      if (e % 2 == 0) service.NotifyEpoch(e);  // half rotate eagerly
    }
  });
  constexpr int kReaders = 3;
  constexpr int kPerReader = 1500;
  std::atomic<int> wrong{0};
  std::atomic<int> not_ok{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kPerReader; ++i) {
        QueryRequest rq;
        rq.tau = 1 + static_cast<uint32_t>((r + i) % 3);
        rq.k = 3 + 5 * static_cast<uint32_t>(i % 2);
        const QueryResponse resp = service.Query(rq);
        if (resp.status != ResponseStatus::kOk) {
          not_ok.fetch_add(1);
          continue;
        }
        const FrozenEsdIndex& image = *images[resp.ctx.epoch % images.size()];
        if (resp.result != image.Query(rq.k, rq.tau)) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  done.store(true);
  publisher.join();
  service.Stop();
  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(service.metrics().Snap().inline_hits, 0u);
}

TEST(ServeTest, PausedTeardownAnswersBacklogWithShutdown) {
  graph::Graph g = gen::ErdosRenyiGnm(25, 80, 8);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  std::future<QueryResponse> orphan;
  {
    EsdQueryService::Options opts;
    opts.start_paused = true;
    EsdQueryService service(frozen, opts);
    orphan = service.Submit({});
  }
  EXPECT_EQ(orphan.get().status, ResponseStatus::kShutdown);
}

TEST(ServeTest, DegenerateRequestsMatchEngineSemantics) {
  graph::Graph g = gen::ErdosRenyiGnm(25, 80, 10);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService service(frozen, {});
  QueryRequest zero_k;
  zero_k.k = 0;
  EXPECT_TRUE(service.Query(zero_k).result.empty());
  QueryRequest zero_tau;
  zero_tau.tau = 0;
  EXPECT_TRUE(service.Query(zero_tau).result.empty());
  QueryRequest huge_tau;
  huge_tau.tau = 1u << 30;  // above every stored size: all padding
  EXPECT_EQ(service.Query(huge_tau).result,
            frozen.Query(huge_tau.k, huge_tau.tau));
}

TEST(ServeMetricsTest, HistogramPercentilesAreLogScaleAccurate) {
  LatencyHistogram h;
  // 100 samples: 1..100 µs. Log-scale buckets promise <= 12.5% error.
  for (uint64_t us = 1; us <= 100; ++us) h.RecordNanos(us * 1000);
  LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.p50_us, 50.0, 50.0 * 0.125 + 0.5);
  EXPECT_NEAR(s.p95_us, 95.0, 95.0 * 0.125 + 0.5);
  EXPECT_NEAR(s.p99_us, 99.0, 99.0 * 0.125 + 0.5);
  EXPECT_DOUBLE_EQ(s.max_us, 100.0);
  EXPECT_NEAR(s.mean_us, 50.5, 1e-9);
  EXPECT_LE(s.p50_us, s.p95_us);
  EXPECT_LE(s.p95_us, s.p99_us);
}

TEST(ServeMetricsTest, HistogramIsSafeUnderConcurrentRecords) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.RecordNanos(static_cast<uint64_t>(t) * 1000 + 100);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Snap().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ServeMetricsTest, JsonFieldsAreWellFormed) {
  serve::ServiceMetrics m;
  m.RecordAccepted();
  m.RecordCompleted(12.0, 3.0);
  const std::string fields = serve::MetricsJsonFields(m.Snap());
  EXPECT_NE(fields.find("\"accepted\":1"), std::string::npos) << fields;
  EXPECT_NE(fields.find("\"completed\":1"), std::string::npos) << fields;
  EXPECT_NE(fields.find("\"p95_us\":"), std::string::npos) << fields;
  EXPECT_EQ(fields.find('{'), std::string::npos) << fields;
}

TEST(ThreadPoolServeTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(util::ThreadPool::DefaultThreadCount(), 1u);
}

// Engine-swap serving: each batch pins the provider's engine of the moment,
// and a batch keeps its pinned engine alive (shared_ptr) even after the
// provider moves on — the contract LiveEsdIndex epoch swaps rely on.
TEST(ServeTest, EngineProviderPinsEnginePerBatch) {
  graph::Graph g_small = gen::ErdosRenyiGnm(40, 80, 5);
  graph::Graph g_large = gen::ErdosRenyiGnm(60, 200, 6);
  auto engine_a = std::make_shared<FrozenEsdIndex>(core::BuildFrozenIndex(g_small));
  auto engine_b = std::make_shared<FrozenEsdIndex>(core::BuildFrozenIndex(g_large));
  const TopKResult want_a = engine_a->Query(16, 2);
  const TopKResult want_b = engine_b->Query(16, 2);
  ASSERT_NE(want_a, want_b) << "test graphs must give distinct answers";

  std::mutex mu;
  std::shared_ptr<const FrozenEsdIndex> current = engine_a;
  uint64_t epoch = 0;
  EsdQueryService::Options opts;
  opts.num_threads = 2;
  EsdQueryService service(
      EsdQueryService::EpochEngineProvider(
          [&]() -> EsdQueryService::PinnedEngine {
            std::lock_guard<std::mutex> lock(mu);
            return {current, epoch};
          }),
      opts);

  QueryRequest rq;
  rq.k = 16;
  rq.tau = 2;
  EXPECT_EQ(service.Query(rq).result, want_a);

  // Swap the engine; subsequent batches must see the new one even though
  // the service never restarts. Dropping our references proves each batch
  // held its own pin.
  {
    std::lock_guard<std::mutex> lock(mu);
    current = engine_b;
    ++epoch;
  }
  engine_a.reset();
  EXPECT_EQ(service.Query(rq).result, want_b);
  engine_b.reset();  // `current` still pins it inside the provider
  EXPECT_EQ(service.Query(rq).result, want_b);
}

// ---------------------------------------------------------------------------
// ResultCache: the epoch-keyed answer cache in front of the slab path.
// ---------------------------------------------------------------------------

serve::ResultCache::Options SmallCacheOptions(size_t entries, size_t bytes) {
  serve::ResultCache::Options copts;
  copts.max_entries = entries;
  copts.max_bytes = bytes;
  copts.shards = 1;  // single shard: capacity semantics are exact
  return copts;
}

TopKResult MakeResult(uint32_t score, size_t n = 1) {
  TopKResult r;
  for (size_t i = 0; i < n; ++i) {
    r.push_back(core::ScoredEdge{
        graph::Edge{static_cast<graph::VertexId>(i),
                    static_cast<graph::VertexId>(i + 1)},
        score});
  }
  return r;
}

TEST(ResultCacheTest, HitMissAndLruEviction) {
  obs::MetricRegistry reg;
  serve::ResultCache cache(SmallCacheOptions(4, 1 << 20), reg);

  const TopKResult r1 = MakeResult(7);
  TopKResult out;
  EXPECT_FALSE(cache.Lookup(0, 2, 10, true, &out));
  cache.Insert(0, 2, 10, true, r1);
  ASSERT_TRUE(cache.Lookup(0, 2, 10, true, &out));
  EXPECT_EQ(out, r1);
  // Every key dimension participates: pad, k, and tau each miss alone.
  EXPECT_FALSE(cache.Lookup(0, 2, 10, false, &out));
  EXPECT_FALSE(cache.Lookup(0, 2, 11, true, &out));
  EXPECT_FALSE(cache.Lookup(0, 3, 10, true, &out));

  // Four newer keys push the original out of the 4-entry LRU.
  for (uint32_t k = 20; k < 24; ++k) cache.Insert(0, 5, k, true, r1);
  const serve::ResultCache::Stats s = cache.Snap();
  EXPECT_EQ(s.entries, 4u);
  EXPECT_GE(s.evictions, 1u);
  EXPECT_FALSE(cache.Lookup(0, 2, 10, true, &out));
  ASSERT_TRUE(cache.Lookup(0, 5, 23, true, &out));

  // The registry carries the same counters under esd_cache_*.
  EXPECT_EQ(reg.CounterValue("esd_cache_hits"), cache.Snap().hits);
  EXPECT_EQ(reg.CounterValue("esd_cache_misses"), cache.Snap().misses);
  EXPECT_GT(reg.GaugeValue("esd_cache_bytes"), 0.0);
}

TEST(ResultCacheTest, ByteBudgetBoundsResidencyAndRefusesOversized) {
  obs::MetricRegistry reg;
  // Tight byte budget, generous entry budget: bytes are the binding bound.
  const size_t budget = 1024;
  serve::ResultCache cache(SmallCacheOptions(1024, budget), reg);

  for (uint32_t k = 1; k <= 64; ++k) {
    cache.Insert(0, 1, k, true, MakeResult(k, 8));
    EXPECT_LE(cache.Snap().bytes, budget) << "after insert k=" << k;
  }
  serve::ResultCache::Stats s = cache.Snap();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_GT(s.entries, 0u);
  EXPECT_LT(s.entries, 64u);

  // A result bigger than the whole shard budget is refused outright
  // (inserting it would evict everything for a one-shot answer).
  TopKResult out;
  cache.Insert(0, 9, 9, true, MakeResult(1, 4096));
  EXPECT_FALSE(cache.Lookup(0, 9, 9, true, &out));
}

TEST(ResultCacheTest, EpochSwapInvalidatesWholeGeneration) {
  obs::MetricRegistry reg;
  serve::ResultCache cache(SmallCacheOptions(64, 1 << 20), reg);
  const TopKResult r0 = MakeResult(3);
  const TopKResult r1 = MakeResult(9);
  TopKResult out;

  for (uint32_t tau = 1; tau <= 8; ++tau) cache.Insert(0, tau, 5, true, r0);
  ASSERT_TRUE(cache.Lookup(0, 4, 5, true, &out));

  // One O(1) rotation drops all eight entries at once.
  cache.OnEpochChange(1);
  serve::ResultCache::Stats s = cache.Snap();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.generations, 2u);
  EXPECT_FALSE(cache.Lookup(1, 4, 5, true, &out));
  cache.Insert(1, 4, 5, true, r1);
  ASSERT_TRUE(cache.Lookup(1, 4, 5, true, &out));
  EXPECT_EQ(out, r1);

  // A reader still pinned to the retired epoch bypasses: it must neither
  // see the new generation's answers nor pollute it with stale ones.
  EXPECT_FALSE(cache.Lookup(0, 4, 5, true, &out));
  cache.Insert(0, 7, 7, true, r0);
  EXPECT_FALSE(cache.Lookup(1, 7, 7, true, &out));
  EXPECT_GE(cache.Snap().bypasses, 1u);

  // Backward epoch notifications are no-ops; newer lookups rotate lazily
  // even without a notification.
  cache.OnEpochChange(0);
  EXPECT_EQ(cache.Snap().epoch, 1u);
  EXPECT_FALSE(cache.Lookup(5, 4, 5, true, &out));
  EXPECT_EQ(cache.Snap().epoch, 5u);
}

// TSan-targeted: readers hammer Lookup/Insert while another thread bumps
// the epoch. Payloads encode (epoch, tau, k), so any hit that crossed a
// generation boundary or returned another key's answer is caught in the
// assertion, not just by the sanitizer.
TEST(ResultCacheTest, ConcurrentReadersSurviveEpochBumps) {
  obs::MetricRegistry reg;
  serve::ResultCache::Options copts;
  copts.max_entries = 64;
  copts.max_bytes = 1 << 20;
  copts.shards = 4;
  serve::ResultCache cache(copts, reg);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> epoch{0};
  auto score_of = [](uint64_t e, uint32_t tau, uint32_t k) {
    return static_cast<uint32_t>(e * 1000 + tau * 10 + k);
  };

  constexpr int kReaders = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t state = 0x9E3779B9u * (t + 1);
      TopKResult out;
      while (!stop.load(std::memory_order_relaxed)) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const uint32_t tau = 1 + static_cast<uint32_t>((state >> 33) % 8);
        const uint32_t k = 1 + static_cast<uint32_t>((state >> 45) % 4);
        const uint64_t e = epoch.load(std::memory_order_relaxed);
        if (cache.Lookup(e, tau, k, true, &out)) {
          if (out.size() != 1 || out[0].score != score_of(e, tau, k)) {
            wrong.fetch_add(1);
          }
        } else {
          cache.Insert(e, tau, k, true, MakeResult(score_of(e, tau, k)));
        }
      }
    });
  }
  for (uint64_t b = 1; b <= 50; ++b) {
    epoch.store(b, std::memory_order_relaxed);
    cache.OnEpochChange(b);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.Snap().epoch, 50u);
  EXPECT_EQ(cache.Snap().generations, 51u);
}

TEST(ServeTest, ResultCacheServesRepeatsAndKeepsParity) {
  graph::Graph g = gen::BarabasiAlbert(120, 3, 7);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 2;
  opts.cache_bytes = 1 << 20;
  EsdQueryService service(frozen, opts);
  ASSERT_NE(service.cache(), nullptr);

  for (int round = 0; round < 5; ++round) {
    for (uint32_t tau : {1u, 2u, 3u}) {
      for (uint32_t k : {5u, 17u}) {
        QueryRequest rq;
        rq.k = k;
        rq.tau = tau;
        QueryResponse resp = service.Query(rq);
        ASSERT_EQ(resp.status, ResponseStatus::kOk);
        EXPECT_EQ(resp.result, frozen.Query(k, tau))
            << "round=" << round << " tau=" << tau << " k=" << k;
      }
    }
  }
  const serve::ResultCache::Stats s = service.cache()->Snap();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GE(s.misses, 6u);  // at least one compulsory miss per combination
  EXPECT_EQ(s.epoch, 0u);   // static engine: the generation never rotates
}

// Regression: the per-request (non-frozen) path used to bump the
// distinct-tau count once per request, so equal-tau batches reported zero
// slab searches saved even though tau-batching grouped them.
TEST(ServeTest, DegenerateBatchCountsDistinctTausOnce) {
  graph::Graph g = gen::ErdosRenyiGnm(30, 90, 12);
  std::string error;
  std::unique_ptr<core::EsdQueryEngine> treap =
      core::BuildQueryEngine(g, "treap", core::EsdScorer(), &error);
  ASSERT_NE(treap, nullptr) << error;

  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.max_batch = 64;
  opts.start_paused = true;
  EsdQueryService service(*treap, opts);

  const TopKResult want = treap->Query(4, 2);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    QueryRequest rq;
    rq.k = 4;
    rq.tau = 2;
    futures.push_back(service.Submit(rq));
  }
  service.Start();
  for (auto& f : futures) {
    QueryResponse resp = f.get();
    EXPECT_EQ(resp.status, ResponseStatus::kOk);
    EXPECT_EQ(resp.result, want);
  }
  const MetricsSnapshot snap = service.metrics().Snap();
  EXPECT_EQ(snap.completed, 6u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.slab_searches_saved, 5u);  // 6 requests, 1 distinct tau
}

// The admission ring: FIFO order must survive the ring's head wrapping
// past its last slot and a growth that re-lays the queued requests. One
// worker with max_batch = 1 serves (and calls back) strictly in admission
// order; a callback that blocks the worker lets the test queue behind it.
TEST(ServeTest, RingKeepsFifoAcrossWrapAndGrowth) {
  graph::Graph g = gen::ErdosRenyiGnm(25, 80, 13);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.max_batch = 1;
  opts.max_queue = 1024;
  opts.start_paused = true;
  EsdQueryService service(frozen, opts);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  bool blocked = false;
  bool release = false;
  constexpr int kGate = 9;
  auto submit = [&](int id) {
    service.SubmitAsync({}, [&, id](QueryResponse resp) {
      EXPECT_EQ(resp.status, ResponseStatus::kOk);
      std::unique_lock<std::mutex> lock(mu);
      order.push_back(id);
      if (id == kGate) {
        blocked = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      }
    });
  };
  // The ring starts at 16 slots. Twelve queued, then the worker serves
  // ids 0..9 and blocks in id 9's callback: the head sits at slot 10.
  int next = 0;
  for (; next < 12; ++next) submit(next);
  service.Start();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked; });
  }
  // Ten more wrap the tail past slot 15; the next ten fill the ring and
  // grow it, re-laying a wrapped ring.
  for (; next < 32; ++next) submit(next);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.Stop();
  std::vector<int> want(32);
  for (int i = 0; i < 32; ++i) want[i] = i;
  EXPECT_EQ(order, want);
  EXPECT_EQ(service.metrics().Snap().rejected, 0u);
}

TEST(ServeTest, RejectsExactlyAtMaxQueueAfterRingGrowth) {
  graph::Graph g = gen::ErdosRenyiGnm(20, 60, 14);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  // Not a power of two: the ring grows 16 -> 32 -> 40, capped here.
  opts.max_queue = 40;
  opts.start_paused = true;
  EsdQueryService service(frozen, opts);

  std::vector<std::future<QueryResponse>> admitted;
  for (int i = 0; i < 40; ++i) admitted.push_back(service.Submit({}));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.Submit({}).get().status,
              ResponseStatus::kRejectedQueueFull);
  }
  MetricsSnapshot snap = service.metrics().Snap();
  EXPECT_EQ(snap.accepted, 40u);
  EXPECT_EQ(snap.rejected, 3u);

  service.Start();
  for (auto& f : admitted) EXPECT_EQ(f.get().status, ResponseStatus::kOk);
  snap = service.metrics().Snap();
  EXPECT_EQ(snap.completed, 40u);
}

// A paused service never takes from its ring, so teardown finds the
// requests in admission order, in a ring grown past its first 16 slots:
// each orphan is answered exactly once, with kShutdown.
TEST(ServeTest, PausedTeardownOfGrownRingAnswersEachOrphanOnce) {
  graph::Graph g = gen::ErdosRenyiGnm(25, 80, 15);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  constexpr int kOrphans = 37;
  std::vector<int> calls(kOrphans, 0);
  std::vector<int> order;
  std::vector<std::future<QueryResponse>> futures;
  {
    EsdQueryService::Options opts;
    opts.start_paused = true;
    EsdQueryService service(frozen, opts);
    for (int i = 0; i < kOrphans; ++i) {
      if (i % 3 == 0) {
        futures.push_back(service.Submit({}));
        continue;
      }
      service.SubmitAsync({}, [&, i](QueryResponse resp) {
        EXPECT_EQ(resp.status, ResponseStatus::kShutdown);
        EXPECT_TRUE(resp.result.empty());
        ++calls[i];
        order.push_back(i);
      });
    }
  }
  std::vector<int> want;
  for (int i = 0; i < kOrphans; ++i) {
    if (i % 3 == 0) continue;
    EXPECT_EQ(calls[i], 1) << "i=" << i;
    want.push_back(i);
  }
  EXPECT_EQ(order, want);
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, ResponseStatus::kShutdown);
  }
}

// A draining Stop of a wrapped ring: every admitted request is served and
// called back exactly once.
TEST(ServeTest, DrainingStopOfWrappedRingResolvesEachOnce) {
  graph::Graph g = gen::ErdosRenyiGnm(25, 80, 16);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.max_batch = 4;
  opts.start_paused = true;
  EsdQueryService service(frozen, opts);

  std::mutex mu;
  std::condition_variable cv;
  bool blocked = false;
  bool release = false;
  constexpr int kTotal = 40;
  std::vector<std::atomic<int>> calls(kTotal);
  for (int i = 0; i < kTotal; ++i) {
    if (i == 14) {
      // The worker serves ids 0..11 in batches of four and blocks in id
      // 11's callback, with its head at slot 12 of the 16-slot ring: the
      // ids queued from here on wrap the ring, then grow it.
      service.Start();
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return blocked; });
    }
    service.SubmitAsync({}, [&, i](QueryResponse resp) {
      EXPECT_EQ(resp.status, ResponseStatus::kOk);
      calls[i].fetch_add(1);
      if (i == 11) {
        std::unique_lock<std::mutex> lock(mu);
        blocked = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      }
    });
  }
  std::thread stopper([&] { service.Stop(); });
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  stopper.join();
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(calls[i].load(), 1) << "i=" << i;
  EXPECT_EQ(service.metrics().Snap().completed,
            static_cast<uint64_t>(kTotal));
}

// Submit (a future) and SubmitAsync (a callback) share one completion
// channel; mixed in one batch, each request resolves exactly once with its
// own answer.
TEST(ServeTest, SubmitAndSubmitAsyncMixedInOneBatchResolveOnce) {
  graph::Graph g = gen::BarabasiAlbert(60, 3, 17);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.max_batch = 64;
  opts.start_paused = true;
  EsdQueryService service(frozen, opts);

  constexpr int kRequests = 24;
  std::vector<QueryRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    QueryRequest rq;
    rq.tau = 1 + static_cast<uint32_t>((i * 5) % 4);
    rq.k = 1 + static_cast<uint32_t>((i * 7) % 6);
    rq.pad_with_zero_edges = i % 5 != 0;
    requests.push_back(rq);
  }
  std::vector<std::future<QueryResponse>> futures(kRequests);
  std::vector<std::atomic<int>> calls(kRequests);
  std::vector<TopKResult> got(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    if (i % 2 == 0) {
      futures[i] = service.Submit(requests[i]);
    } else {
      service.SubmitAsync(requests[i], [&, i](QueryResponse resp) {
        EXPECT_EQ(resp.status, ResponseStatus::kOk);
        got[i] = std::move(resp.result);
        calls[i].fetch_add(1);
      });
    }
  }
  service.Start();
  service.Stop();
  for (int i = 0; i < kRequests; ++i) {
    const QueryRequest& rq = requests[i];
    const TopKResult want = frozen.Query(rq.k, rq.tau, rq.pad_with_zero_edges);
    if (i % 2 == 0) {
      QueryResponse resp = futures[i].get();
      EXPECT_EQ(resp.status, ResponseStatus::kOk);
      EXPECT_EQ(resp.result, want) << "i=" << i;
    } else {
      EXPECT_EQ(calls[i].load(), 1) << "i=" << i;
      EXPECT_EQ(got[i], want) << "i=" << i;
    }
  }
  const MetricsSnapshot snap = service.metrics().Snap();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.completed, static_cast<uint64_t>(kRequests));
}

}  // namespace
}  // namespace esd
