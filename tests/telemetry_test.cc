// Request-scoped telemetry: the RequestContext minted at admission must
// survive tau-batching, dedup, and the result cache with unique ids and a
// per-stage attribution that exactly partitions the reported latencies;
// the slow-query ring log must retain the worst of the window with full
// forensics; the metrics time-series ring must turn counter snapshots into
// rates; and trace spans must join under one request id. Suites are
// prefixed Telemetry* so the TSan CI job picks up the concurrent ones by
// name.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/scorer.h"
#include "gen/barabasi_albert.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/query_service.h"
#include "serve/slowlog.h"
#include "tests/test_helpers.h"

namespace esd {
namespace {

using core::FrozenEsdIndex;
using obs::CacheOutcome;
using obs::MetricHistory;
using obs::MetricRegistry;
using obs::RequestContext;
using obs::Stage;
using serve::EsdQueryService;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ResponseStatus;
using serve::SlowQueryLog;
using serve::SlowQueryRecord;
using test::JsonParser;
using test::JsonValue;

// ---------------------------------------------------------------------------
// RequestContext

TEST(TelemetryContextTest, MintIdIsUniqueAndNonZero) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::vector<uint64_t>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&minted, t] {
      minted[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        minted[t].push_back(RequestContext::MintId());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<uint64_t> all;
  for (const std::vector<uint64_t>& v : minted) {
    for (uint64_t id : v) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(all.insert(id).second) << "duplicate request id " << id;
    }
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(TelemetryContextTest, ChargeAccumulatesPerStage) {
  RequestContext ctx;
  EXPECT_EQ(ctx.AttributedNanos(), 0u);
  ctx.Charge(Stage::kSlabScan, 1000);
  ctx.Charge(Stage::kSlabScan, 500);
  ctx.Charge(Stage::kMerge, 250);
  EXPECT_EQ(ctx.StageNanos(Stage::kSlabScan), 1500u);
  EXPECT_EQ(ctx.StageNanos(Stage::kMerge), 250u);
  EXPECT_EQ(ctx.StageNanos(Stage::kQueueWait), 0u);
  EXPECT_EQ(ctx.AttributedNanos(), 1750u);
  EXPECT_DOUBLE_EQ(ctx.StageMicros(Stage::kSlabScan), 1.5);
}

TEST(TelemetryContextTest, StageAndOutcomeNamesAreStable) {
  EXPECT_STREQ(obs::StageName(Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(obs::StageName(Stage::kBatchFormation), "batch_formation");
  EXPECT_STREQ(obs::StageName(Stage::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(obs::StageName(Stage::kSlabScan), "slab_scan");
  EXPECT_STREQ(obs::StageName(Stage::kPaddingScan), "padding_scan");
  EXPECT_STREQ(obs::StageName(Stage::kMerge), "merge");
  EXPECT_STREQ(obs::StageSpanName(Stage::kSlabScan), "req.slab_scan");
  EXPECT_STREQ(obs::CacheOutcomeName(CacheOutcome::kNone), "none");
  EXPECT_STREQ(obs::CacheOutcomeName(CacheOutcome::kHit), "hit");
  EXPECT_STREQ(obs::CacheOutcomeName(CacheOutcome::kMiss), "miss");
  EXPECT_STREQ(obs::CacheOutcomeName(CacheOutcome::kDedup), "dedup");
}

// ---------------------------------------------------------------------------
// Trace propagation through the service

// The attribution invariants every completed response must satisfy:
// queue_wait + batch_formation == queue_us and the four execution stages
// partition exec_us (same clock readings, so only float rounding between
// them).
void ExpectAttributionPartitions(const QueryResponse& resp) {
  const double queue_sum = resp.ctx.StageMicros(Stage::kQueueWait) +
                           resp.ctx.StageMicros(Stage::kBatchFormation);
  EXPECT_NEAR(queue_sum, resp.queue_us, 0.5);
  const double exec_sum = resp.ctx.StageMicros(Stage::kCacheLookup) +
                          resp.ctx.StageMicros(Stage::kSlabScan) +
                          resp.ctx.StageMicros(Stage::kPaddingScan) +
                          resp.ctx.StageMicros(Stage::kMerge);
  EXPECT_NEAR(exec_sum, resp.exec_us, 0.5);
}

TEST(TelemetryPropagationTest, ContextSurvivesConcurrentBatching) {
  graph::Graph g = gen::BarabasiAlbert(120, 4, 11);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);

  EsdQueryService::Options opts;
  opts.num_threads = 4;
  opts.max_batch = 8;
  opts.cache_bytes = 1 << 20;
  EsdQueryService service(frozen, opts);

  constexpr int kClients = 6;
  constexpr int kRounds = 150;
  std::vector<std::vector<QueryResponse>> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &responses, c] {
      responses[c].reserve(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        QueryRequest rq;
        // A narrow (tau, k) ladder so batching, dedup, and cache hits all
        // actually occur under concurrency.
        rq.tau = 1 + static_cast<uint32_t>((c + r) % 3);
        rq.k = 4 + 4 * static_cast<uint32_t>(r % 2);
        responses[c].push_back(service.Submit(rq).get());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Stop();

  std::set<uint64_t> rids;
  int hits = 0, misses = 0, dedups = 0;
  for (const std::vector<QueryResponse>& per_client : responses) {
    for (const QueryResponse& resp : per_client) {
      ASSERT_EQ(resp.status, ResponseStatus::kOk);
      EXPECT_NE(resp.ctx.request_id, 0u);
      EXPECT_TRUE(rids.insert(resp.ctx.request_id).second)
          << "duplicate rid " << resp.ctx.request_id;
      EXPECT_EQ(resp.ctx.epoch, 0u);  // static engine
      ExpectAttributionPartitions(resp);
      switch (resp.ctx.cache) {
        case CacheOutcome::kHit: ++hits; break;
        case CacheOutcome::kMiss: ++misses; break;
        case CacheOutcome::kDedup: ++dedups; break;
        case CacheOutcome::kNone:
          ADD_FAILURE() << "cache on: outcome none for rid "
                        << resp.ctx.request_id;
          break;
      }
    }
  }
  EXPECT_EQ(rids.size(), static_cast<size_t>(kClients * kRounds));
  // The 6-combination ladder over 900 requests must hit after warmup.
  EXPECT_GT(hits + dedups, 0);
  EXPECT_GT(misses, 0);
}

TEST(TelemetryPropagationTest, CacheOutcomeIsHitAfterMiss) {
  graph::Graph g = gen::BarabasiAlbert(80, 3, 5);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.cache_bytes = 1 << 20;
  EsdQueryService service(frozen, opts);

  QueryRequest rq;
  rq.k = 5;
  rq.tau = 2;
  const QueryResponse first = service.Query(rq);
  const QueryResponse second = service.Query(rq);
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_EQ(first.ctx.cache, CacheOutcome::kMiss);
  EXPECT_EQ(second.ctx.cache, CacheOutcome::kHit);
  EXPECT_LT(first.ctx.request_id, second.ctx.request_id);
  EXPECT_EQ(first.result, second.result);
  // A hit never touches the slab.
  EXPECT_EQ(second.ctx.StageNanos(Stage::kSlabScan), 0u);
}

TEST(TelemetryPropagationTest, InlineHitIsAttributedLoggedAndTraced) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  graph::Graph g = gen::BarabasiAlbert(80, 3, 5);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  opts.cache_bytes = 1 << 20;
  EsdQueryService service(frozen, opts);

  QueryRequest rq;
  rq.k = 6;
  rq.tau = 2;
  ASSERT_EQ(service.Query(rq).ctx.cache, CacheOutcome::kMiss);
  // The hit completes on this thread, before SubmitAsync returns.
  QueryResponse hit;
  bool answered = false;
  service.SubmitAsync(rq, [&](QueryResponse resp) {
    hit = std::move(resp);
    answered = true;
  });
  ASSERT_TRUE(answered);
  ASSERT_EQ(hit.status, ResponseStatus::kOk);
  EXPECT_EQ(hit.ctx.cache, CacheOutcome::kHit);
  EXPECT_EQ(hit.result, frozen.Query(rq.k, rq.tau));
  EXPECT_EQ(hit.ctx.StageNanos(Stage::kQueueWait), 0u);
  EXPECT_EQ(hit.ctx.StageNanos(Stage::kBatchFormation), 0u);
  EXPECT_EQ(hit.queue_us, 0.0);
  EXPECT_DOUBLE_EQ(hit.ctx.StageMicros(Stage::kCacheLookup), hit.exec_us);
  ExpectAttributionPartitions(hit);
  EXPECT_EQ(service.metrics().Snap().inline_hits, 1u);
  service.Stop();

  // The slow log holds the hit under its rid, with its outcome.
  bool logged = false;
  for (const SlowQueryRecord& rec : service.slow_log().Worst()) {
    if (rec.request_id != hit.ctx.request_id) continue;
    logged = true;
    EXPECT_EQ(rec.cache, CacheOutcome::kHit);
    EXPECT_EQ(rec.queue_us, 0.0);
    EXPECT_DOUBLE_EQ(rec.exec_us, hit.exec_us);
  }
  EXPECT_TRUE(logged);

  if (!tracer.enabled()) return;  // tracing compiled out
  JsonValue trace;
  ASSERT_TRUE(JsonParser(tracer.ChromeTraceJson()).Parse(&trace));
  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> joined;
  for (const JsonValue& ev : events->array) {
    const JsonValue* args = ev.Find("args");
    if (args == nullptr || args->Find("rid") == nullptr) continue;
    if (static_cast<uint64_t>(args->Find("rid")->number) ==
        hit.ctx.request_id) {
      joined.insert(ev.Find("name")->str);
    }
  }
  EXPECT_TRUE(joined.count("req.cache_lookup")) << joined.size();
  EXPECT_FALSE(joined.count("req.slab_scan"));
}

TEST(TelemetryPropagationTest, UncachedServiceReportsOutcomeNone) {
  graph::Graph g = gen::BarabasiAlbert(80, 3, 7);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  EsdQueryService service(frozen, opts);
  QueryRequest rq;
  const QueryResponse resp = service.Query(rq);
  ASSERT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_EQ(resp.ctx.cache, CacheOutcome::kNone);
  ExpectAttributionPartitions(resp);
}

// ---------------------------------------------------------------------------
// SlowQueryLog

SlowQueryRecord MakeRecord(uint64_t rid, double total_us) {
  SlowQueryRecord rec;
  rec.request_id = rid;
  rec.tau = 2;
  rec.k = 10;
  rec.queue_us = total_us / 2;
  rec.exec_us = total_us / 2;
  rec.total_us = total_us;
  rec.stage_us[static_cast<size_t>(Stage::kQueueWait)] = total_us / 2;
  rec.stage_us[static_cast<size_t>(Stage::kSlabScan)] = total_us / 2;
  return rec;
}

TEST(TelemetrySlowLogTest, RetainsWorstNInOrder) {
  SlowQueryLog::Options opts;
  opts.capacity = 4;
  opts.stripes = 1;  // deterministic: one heap holds the global answer
  SlowQueryLog log(opts);
  for (uint64_t i = 0; i < 10; ++i) {
    log.Record(MakeRecord(i, static_cast<double>(100 + i)));
  }
  EXPECT_EQ(log.recorded(), 10u);
  const std::vector<SlowQueryRecord> worst = log.Worst();
  ASSERT_EQ(worst.size(), 4u);
  for (size_t i = 0; i < worst.size(); ++i) {
    EXPECT_DOUBLE_EQ(worst[i].total_us, static_cast<double>(109 - i));
    EXPECT_EQ(worst[i].request_id, 9 - i);
  }
  EXPECT_EQ(log.Worst(2).size(), 2u);
}

TEST(TelemetrySlowLogTest, StripedLogStillFindsGlobalWorst) {
  SlowQueryLog::Options opts;
  opts.capacity = 4;
  opts.stripes = 8;
  SlowQueryLog log(opts);
  for (uint64_t i = 0; i < 64; ++i) {
    log.Record(MakeRecord(i, static_cast<double>(i)));
  }
  const std::vector<SlowQueryRecord> worst = log.Worst();
  ASSERT_EQ(worst.size(), 4u);
  EXPECT_EQ(worst[0].request_id, 63u);
  EXPECT_DOUBLE_EQ(worst[0].total_us, 63.0);
  for (size_t i = 1; i < worst.size(); ++i) {
    EXPECT_GE(worst[i - 1].total_us, worst[i].total_us);
  }
}

TEST(TelemetrySlowLogTest, WindowExpiresOldEntries) {
  SlowQueryLog::Options opts;
  opts.capacity = 8;
  opts.stripes = 1;
  opts.window = std::chrono::seconds(60);
  SlowQueryLog log(opts);
  const uint64_t now = obs::MonotonicNanos();
  SlowQueryRecord ancient = MakeRecord(1, 9999.0);
  ancient.recorded_ns = now - uint64_t{120} * 1'000'000'000u;
  log.Record(ancient);
  SlowQueryRecord fresh = MakeRecord(2, 10.0);
  fresh.recorded_ns = now;
  log.Record(fresh);
  const std::vector<SlowQueryRecord> worst = log.Worst();
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_EQ(worst[0].request_id, 2u);
}

TEST(TelemetrySlowLogTest, JsonSchemaParsesWithFullAttribution) {
  SlowQueryLog log;
  SlowQueryRecord rec = MakeRecord(7, 123.5);
  rec.epoch = 3;
  rec.scorer = core::ScorerKind::kEsd;
  rec.cache = CacheOutcome::kMiss;
  rec.health = obs::HealthState::kDegraded;
  rec.deadline_missed = false;
  log.Record(rec);
  const std::vector<std::string> lines = log.JsonLines();
  ASSERT_EQ(lines.size(), 1u);
  JsonValue v;
  ASSERT_TRUE(JsonParser(lines[0]).Parse(&v)) << lines[0];
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(v.Find("rid")->number, 7.0);
  EXPECT_DOUBLE_EQ(v.Find("total_us")->number, 123.5);
  EXPECT_DOUBLE_EQ(v.Find("epoch")->number, 3.0);
  EXPECT_DOUBLE_EQ(v.Find("tau")->number, 2.0);
  EXPECT_DOUBLE_EQ(v.Find("k")->number, 10.0);
  EXPECT_EQ(v.Find("scorer")->str, "esd");
  EXPECT_EQ(v.Find("cache")->str, "miss");
  EXPECT_EQ(v.Find("health")->str, "degraded");
  EXPECT_EQ(v.Find("deadline_missed")->kind, JsonValue::Kind::kBool);
  const JsonValue* stages = v.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->kind, JsonValue::Kind::kObject);
  for (size_t s = 0; s < obs::kNumStages; ++s) {
    EXPECT_NE(stages->Find(obs::StageName(static_cast<Stage>(s))), nullptr)
        << obs::StageName(static_cast<Stage>(s));
  }
  EXPECT_DOUBLE_EQ(stages->Find("slab_scan")->number, 123.5 / 2);
}

TEST(TelemetrySlowLogTest, ConcurrentRecordIsSafeAndBounded) {
  SlowQueryLog::Options opts;
  opts.capacity = 16;
  SlowQueryLog log(opts);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(MakeRecord(static_cast<uint64_t>(t * kPerThread + i),
                              static_cast<double>(i % 97)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.recorded(), static_cast<uint64_t>(kThreads * kPerThread));
  const std::vector<SlowQueryRecord> worst = log.Worst();
  EXPECT_LE(worst.size(), 16u);
  ASSERT_FALSE(worst.empty());
  EXPECT_DOUBLE_EQ(worst[0].total_us, 96.0);
  log.Clear();
  EXPECT_TRUE(log.Worst().empty());
}

TEST(TelemetrySlowLogTest, ServiceFeedsSlowLogWithAttribution) {
  graph::Graph g = gen::BarabasiAlbert(100, 3, 3);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 2;
  opts.slowlog_capacity = 8;
  EsdQueryService service(frozen, opts);

  std::set<uint64_t> rids;
  for (int i = 0; i < 40; ++i) {
    QueryRequest rq;
    rq.tau = 1 + static_cast<uint32_t>(i % 4);
    const QueryResponse resp = service.Query(rq);
    ASSERT_EQ(resp.status, ResponseStatus::kOk);
    rids.insert(resp.ctx.request_id);
  }
  service.Stop();

  const SlowQueryLog& log = service.slow_log();
  EXPECT_EQ(log.recorded(), 40u);
  const std::vector<SlowQueryRecord> worst = log.Worst();
  ASSERT_FALSE(worst.empty());
  EXPECT_LE(worst.size(), 8u);
  for (const SlowQueryRecord& rec : worst) {
    EXPECT_TRUE(rids.count(rec.request_id)) << rec.request_id;
    EXPECT_EQ(rec.scorer, core::ScorerKind::kEsd);
    EXPECT_EQ(rec.health, obs::HealthState::kOk);
    EXPECT_FALSE(rec.deadline_missed);
    double stage_sum = 0;
    for (double us : rec.stage_us) stage_sum += us;
    EXPECT_NEAR(stage_sum, rec.total_us, 1.0);
  }
}

// ---------------------------------------------------------------------------
// MetricHistory

TEST(TelemetryHistoryTest, DerivesRatesFromCounterDeltas) {
  MetricRegistry reg;
  obs::Counter& completed =
      reg.GetCounter("esd_serve_completed_total", "done");
  obs::Counter& hits = reg.GetCounter("esd_cache_hits", "hits");
  obs::Counter& misses = reg.GetCounter("esd_cache_misses", "misses");
  MetricHistory history(reg);

  history.SampleNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  completed.Inc(300);
  hits.Inc(30);
  misses.Inc(10);
  history.SampleNow();

  const std::vector<std::string> lines = history.IntervalsJson(10);
  ASSERT_EQ(lines.size(), 1u);
  JsonValue v;
  ASSERT_TRUE(JsonParser(lines[0]).Parse(&v)) << lines[0];
  EXPECT_GT(v.Find("dt_s")->number, 0.0);
  EXPECT_GT(v.Find("qps")->number, 0.0);
  // 300 completions over ~20ms: thousands of qps, not millions.
  EXPECT_LT(v.Find("qps")->number, 300.0 / 0.01);
  EXPECT_NEAR(v.Find("cache_hit_rate")->number, 0.75, 1e-9);
  const JsonValue* rates = v.Find("rates");
  ASSERT_NE(rates, nullptr);
  EXPECT_NE(rates->Find("esd_serve_completed_total"), nullptr);

  const std::string prom = history.RatesPrometheus();
  EXPECT_NE(prom.find("esd_history_qps"), std::string::npos);
  EXPECT_NE(prom.find("esd_history_cache_hit_rate"), std::string::npos);
  EXPECT_NE(prom.find("esd_serve_completed_total:rate_per_s"),
            std::string::npos);
}

TEST(TelemetryHistoryTest, RingWrapsAtCapacity) {
  MetricRegistry reg;
  reg.GetCounter("esd_wrap_total", "c");
  MetricHistory::Options opts;
  opts.capacity = 4;
  MetricHistory history(reg, opts);
  EXPECT_EQ(history.NumSamples(), 0u);
  for (int i = 0; i < 10; ++i) history.SampleNow();
  EXPECT_EQ(history.NumSamples(), 4u);
  EXPECT_EQ(history.capacity(), 4u);
  // Deltas only exist between retained samples: at most capacity - 1.
  EXPECT_LE(history.IntervalsJson(100).size(), 3u);
}

TEST(TelemetryHistoryTest, GaugeLevelsReportedWhenChanged) {
  MetricRegistry reg;
  obs::Gauge& depth = reg.GetGauge("esd_depth", "d");
  MetricHistory history(reg);
  depth.Set(1.0);
  history.SampleNow();
  depth.Set(5.0);
  history.SampleNow();
  const std::vector<std::string> lines = history.IntervalsJson(1);
  ASSERT_EQ(lines.size(), 1u);
  JsonValue v;
  ASSERT_TRUE(JsonParser(lines[0]).Parse(&v)) << lines[0];
  const JsonValue* gauges = v.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* g = gauges->Find("esd_depth");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->number, 5.0);
}

TEST(TelemetryHistoryTest, BackgroundSamplerRunsAndStops) {
  MetricRegistry reg;
  obs::Counter& ticks = reg.GetCounter("esd_ticks_total", "t");
  std::atomic<int> pre_samples{0};
  MetricHistory::Options opts;
  opts.capacity = 64;
  opts.interval = std::chrono::milliseconds(5);
  opts.pre_sample = [&] {
    pre_samples.fetch_add(1);
    ticks.Inc();
  };
  MetricHistory history(reg, opts);
  history.Start();
  history.Start();  // idempotent
  // Concurrent manual samples race the background thread (TSan checks).
  std::vector<std::thread> manual;
  for (int t = 0; t < 4; ++t) {
    manual.emplace_back([&history] {
      for (int i = 0; i < 20; ++i) history.SampleNow();
    });
  }
  for (std::thread& t : manual) t.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  history.Stop();
  history.Stop();  // idempotent
  const size_t after_stop = history.NumSamples();
  EXPECT_GE(after_stop, 2u);
  EXPECT_GT(pre_samples.load(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(history.NumSamples(), after_stop) << "sampler survived Stop()";
}

// ---------------------------------------------------------------------------
// Trace spans joined under one request id

TEST(TelemetryTraceTest, SpansJoinUnderOneRequestId) {
  obs::Tracer& tracer = obs::Tracer::Global();
  if (!tracer.enabled()) GTEST_SKIP() << "tracing compiled out";
  tracer.Clear();

  graph::Graph g = gen::BarabasiAlbert(100, 3, 9);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 1;
  EsdQueryService service(frozen, opts);
  QueryRequest rq;
  rq.k = 8;
  rq.tau = 2;
  const QueryResponse resp = service.Query(rq);
  ASSERT_EQ(resp.status, ResponseStatus::kOk);
  service.Stop();

  JsonValue trace;
  ASSERT_TRUE(JsonParser(tracer.ChromeTraceJson()).Parse(&trace));
  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> joined;  // span names carrying this request's rid
  for (const JsonValue& ev : events->array) {
    const JsonValue* args = ev.Find("args");
    if (args == nullptr || args->Find("rid") == nullptr) continue;
    if (static_cast<uint64_t>(args->Find("rid")->number) !=
        resp.ctx.request_id) {
      continue;
    }
    joined.insert(ev.Find("name")->str);
  }
  // Admission -> batch at minimum; execution stages when their duration
  // rounded above zero.
  EXPECT_TRUE(joined.count("req.queue_wait")) << joined.size();
  EXPECT_TRUE(joined.count("req.batch_formation")) << joined.size();
  for (const std::string& name : joined) {
    EXPECT_EQ(name.rfind("req.", 0), 0u) << name;
  }
}

TEST(TelemetryTraceTest, WorkerThreadsAreNamedTracks) {
  obs::Tracer& tracer = obs::Tracer::Global();
  if (!tracer.enabled()) GTEST_SKIP() << "tracing compiled out";
  tracer.Clear();

  graph::Graph g = gen::BarabasiAlbert(60, 3, 13);
  FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  EsdQueryService::Options opts;
  opts.num_threads = 2;
  EsdQueryService service(frozen, opts);
  (void)service.Query(QueryRequest{});
  service.Stop();

  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("serve-worker"), std::string::npos);
}

}  // namespace
}  // namespace esd
