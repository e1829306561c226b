// The observability layer: log-scale histogram edge cases and its 12.5%
// bucket-error contract, the metric registry (types, sanitization, both
// exporters — the Prometheus text is checked with a real line parser, the
// JSON fields with a real JSON parser), RAII trace spans with their
// per-thread rings and Chrome trace_event export (schema-validated), the
// PhaseSeries gauges the bench breakdowns read, the per-engine work
// counters, and the serve metrics now hosted on the registry. Suites are
// prefixed Obs* so the TSan CI job picks up the concurrent ones by name.

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/vertex_diversity_index.h"
#include "core/dynamic_index.h"
#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/online_topk.h"
#include "core/query_engine.h"
#include "gen/barabasi_albert.h"
#include "live/live_index.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/search_stats.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "tests/test_helpers.h"

namespace esd {
namespace {

using obs::LatencyHistogram;
using obs::MetricRegistry;
using obs::Tracer;

// JSON schema-check DOM shared with telemetry_test.cc.
using test::JsonParser;
using test::JsonValue;

// The three layers share one stats type — satellite of the dedup: a change
// to the online-search counters is a change everywhere at once.
static_assert(std::is_same_v<core::OnlineStats, obs::OnlineSearchStats>);
static_assert(
    std::is_same_v<baselines::VertexOnlineStats, obs::OnlineSearchStats>);

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(ObsHistogramTest, EmptySnapshotIsAllZeros) {
  LatencyHistogram h;
  const LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50_us, 0.0);
  EXPECT_EQ(s.p95_us, 0.0);
  EXPECT_EQ(s.p99_us, 0.0);
  EXPECT_EQ(s.max_us, 0.0);
  EXPECT_EQ(s.mean_us, 0.0);
  EXPECT_EQ(s.sum_us, 0.0);
}

TEST(ObsHistogramTest, SingleValueRoundTrip) {
  LatencyHistogram h;
  h.RecordNanos(1'000'000);  // 1 ms
  const LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 1u);
  EXPECT_NEAR(s.p50_us, 1000.0, 1000.0 * 0.125);
  EXPECT_DOUBLE_EQ(s.max_us, 1000.0);
  EXPECT_DOUBLE_EQ(s.sum_us, 1000.0);
  EXPECT_DOUBLE_EQ(s.mean_us, 1000.0);
}

TEST(ObsHistogramTest, BucketErrorWithin12Point5Percent) {
  // Every percentile of a single-value histogram must land within 12.5% of
  // the recorded value (the HDR bucket-scheme contract), across nine
  // decades plus power-of-two boundaries on both sides.
  std::vector<uint64_t> values;
  uint64_t lcg = 0x2545F4914F6CDD1Dull;
  for (uint64_t mag = 1; mag <= 1'000'000'000ull; mag *= 10) {
    for (int i = 0; i < 8; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      values.push_back(mag + (lcg >> 33) % (9 * mag));
    }
  }
  for (int bit = 1; bit < 40; ++bit) {
    const uint64_t p = uint64_t{1} << bit;
    values.push_back(p - 1);
    values.push_back(p);
    values.push_back(p + 1);
  }
  for (const uint64_t ns : values) {
    auto h = std::make_unique<LatencyHistogram>();
    h->RecordNanos(ns);
    const LatencyHistogram::Snapshot s = h->Snap();
    const double got_ns = s.p50_us * 1e3;
    const double want_ns = static_cast<double>(ns);
    EXPECT_LE(std::abs(got_ns - want_ns), 0.125 * want_ns + 0.5)
        << "recorded " << ns << " ns, p50 bucket said " << got_ns << " ns";
  }
}

TEST(ObsHistogramTest, RecordMicrosSaturatesInsteadOfOverflowing) {
  LatencyHistogram h;
  h.RecordMicros(-3.5);  // negative -> 0
  h.RecordMicros(std::nan(""));
  h.RecordMicros(std::numeric_limits<double>::infinity());
  h.RecordMicros(1e40);  // above the saturation point
  h.RecordMicros(5.0);
  const LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 5u);
  // inf and 1e40 both clamp to the saturation cap, which is the max.
  EXPECT_DOUBLE_EQ(
      s.max_us, static_cast<double>(LatencyHistogram::kSaturationNs) * 1e-3);
  EXPECT_TRUE(std::isfinite(s.p50_us));
  EXPECT_TRUE(std::isfinite(s.p95_us));
  EXPECT_TRUE(std::isfinite(s.p99_us));
  EXPECT_TRUE(std::isfinite(s.mean_us));
  EXPECT_TRUE(std::isfinite(s.sum_us));
}

TEST(ObsHistogramTest, PercentilesAreOrdered) {
  LatencyHistogram h;
  uint64_t lcg = 99;
  for (int i = 0; i < 10000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    h.RecordNanos(1 + (lcg >> 33) % 1'000'000'000ull);
  }
  const LatencyHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 10000u);
  EXPECT_LE(s.p50_us, s.p95_us);
  EXPECT_LE(s.p95_us, s.p99_us);
  // Percentiles are bucket midpoints, which may exceed the exact max by at
  // most the bucket width (12.5%).
  EXPECT_LE(s.p99_us, s.max_us * 1.125 + 0.5);
  EXPECT_GT(s.mean_us, 0.0);
}

// ---------------------------------------------------------------------------
// MetricRegistry

TEST(ObsMetricsTest, CounterAndGaugeRoundTrip) {
  MetricRegistry reg;
  obs::Counter& c = reg.GetCounter("requests_total", "help");
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(&c, &reg.GetCounter("requests_total"));  // stable reference
  EXPECT_EQ(reg.CounterValue("requests_total"), 5u);

  obs::Gauge& g = reg.GetGauge("depth");
  g.Set(3.0);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("depth"), 3.5);
  EXPECT_EQ(reg.NumMetrics(), 2u);
  // Absent or wrong-typed names read as zero, never throw.
  EXPECT_EQ(reg.CounterValue("no_such_metric"), 0u);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("requests_total"), 0.0);
}

TEST(ObsMetricsTest, SanitizeNameMapsToPrometheusCharset) {
  EXPECT_EQ(MetricRegistry::SanitizeName("build.clique_enum"),
            "build_clique_enum");
  EXPECT_EQ(MetricRegistry::SanitizeName("a:b_C9"), "a:b_C9");
  EXPECT_EQ(MetricRegistry::SanitizeName("9lives"), "_9lives");
  EXPECT_EQ(MetricRegistry::SanitizeName(""), "_");
  EXPECT_EQ(MetricRegistry::SanitizeName("sp ace/slash"), "sp_ace_slash");
}

TEST(ObsMetricsTest, TypeMismatchReturnsHarmlessDummy) {
  MetricRegistry reg;
  reg.GetCounter("mixed").Inc(3);
  // Wrong-typed lookups must not corrupt the registered metric.
  reg.GetGauge("mixed").Set(99.0);
  reg.GetHistogram("mixed").RecordMicros(1.0);
  EXPECT_EQ(reg.CounterValue("mixed"), 3u);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("mixed"), 0.0);  // not a gauge
  EXPECT_EQ(reg.NumMetrics(), 1u);
}

// The acceptance-criterion parser test: every line of the exposition must
// be a comment (# HELP / # TYPE) or a `name[{quantile="q"}] value` sample,
// each sample's metric must have had a preceding # TYPE, and the values
// must round-trip.
TEST(ObsMetricsTest, PrometheusTextExpositionParses) {
  MetricRegistry reg;
  reg.GetCounter("esd_test_requests_total", "Requests\nwith \\ tricky help")
      .Inc(3);
  reg.GetGauge("esd_test_depth", "Queue depth").Set(2.5);
  obs::Histogram& h = reg.GetHistogram("esd_test_latency_us", "Latency");
  h.RecordMicros(100.0);
  h.RecordMicros(200.0);
  h.RecordMicros(300.0);

  const std::string text = reg.PrometheusText();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');

  std::set<std::string> typed;   // metrics with a # TYPE line seen so far
  std::set<std::string> helped;  // metrics with a # HELP line seen so far
  std::map<std::string, double> samples;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated line";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string name = line.substr(7, sp - 7);
      EXPECT_TRUE(helped.insert(name).second)
          << "duplicate # HELP for " << name;
      // Help escaping contract: any backslash introduces \\ or \n, so the
      // help text can never smuggle a raw newline or ambiguous escape.
      const std::string help = line.substr(sp + 1);
      for (size_t b = 0; b < help.size(); ++b) {
        if (help[b] != '\\') continue;
        ASSERT_LT(b + 1, help.size()) << "dangling backslash: " << line;
        EXPECT_TRUE(help[b + 1] == '\\' || help[b + 1] == 'n') << line;
        ++b;
      }
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string name = line.substr(7, sp - 7);
      const std::string type = line.substr(sp + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "summary")
          << line;
      // Exposition convention: # HELP precedes # TYPE for every metric.
      EXPECT_TRUE(helped.count(name)) << "# TYPE before # HELP: " << line;
      typed.insert(name);
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    // Sample: name, optional {quantile="X"}, space, float.
    size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_' || line[i] == ':')) {
      ++i;
    }
    ASSERT_GT(i, 0u) << line;
    std::string name = line.substr(0, i);
    std::string key = name;
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      ASSERT_NE(close, std::string::npos) << line;
      const std::string labels = line.substr(i, close - i + 1);
      EXPECT_EQ(labels.rfind("{quantile=\"", 0), 0u) << line;
      key += labels;
      i = close + 1;
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    char* after = nullptr;
    const double value = std::strtod(line.c_str() + i + 1, &after);
    EXPECT_EQ(*after, '\0') << "trailing junk in: " << line;
    // _sum/_count samples belong to the summary typed under the base name.
    std::string base = name;
    for (const char* suffix : {"_sum", "_count"}) {
      const std::string s(suffix);
      if (base.size() > s.size() &&
          base.compare(base.size() - s.size(), s.size(), s) == 0 &&
          typed.count(base.substr(0, base.size() - s.size())) > 0) {
        base = base.substr(0, base.size() - s.size());
      }
    }
    EXPECT_TRUE(typed.count(base)) << "sample before # TYPE: " << line;
    samples[key] = value;
  }

  EXPECT_DOUBLE_EQ(samples.at("esd_test_requests_total"), 3.0);
  EXPECT_DOUBLE_EQ(samples.at("esd_test_depth"), 2.5);
  EXPECT_DOUBLE_EQ(samples.at("esd_test_latency_us_count"), 3.0);
  EXPECT_NEAR(samples.at("esd_test_latency_us_sum"), 600.0, 1e-6);
  EXPECT_NEAR(samples.at("esd_test_latency_us{quantile=\"0.5\"}"), 200.0,
              200.0 * 0.125);
  EXPECT_NEAR(samples.at("esd_test_latency_us{quantile=\"0.99\"}"), 300.0,
              300.0 * 0.125);
  // Every typed metric carried help, and vice versa.
  EXPECT_EQ(typed, helped);
}

// Samples() is the exporter MetricHistory snapshots: counters and histogram
// _count/_sum columns are monotone (rateable), gauges are levels.
TEST(ObsMetricsTest, SamplesExportsAllMetricKinds) {
  MetricRegistry reg;
  reg.GetCounter("esd_s_total", "c").Inc(7);
  reg.GetGauge("esd_s_depth", "g").Set(1.25);
  reg.GetHistogram("esd_s_lat_us", "h").RecordMicros(50.0);

  std::map<std::string, std::pair<double, bool>> got;
  for (const obs::MetricRegistry::Sample& s : reg.Samples()) {
    got[s.name] = {s.value, s.monotone};
  }
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.at("esd_s_total"), (std::pair<double, bool>{7.0, true}));
  EXPECT_EQ(got.at("esd_s_depth"), (std::pair<double, bool>{1.25, false}));
  EXPECT_EQ(got.at("esd_s_lat_us_count"),
            (std::pair<double, bool>{1.0, true}));
  EXPECT_EQ(got.at("esd_s_lat_us_sum"), (std::pair<double, bool>{50.0, true}));
}

TEST(ObsMetricsTest, JsonFieldsFormValidJson) {
  MetricRegistry reg;
  reg.GetCounter("hits_total").Inc(7);
  reg.GetGauge("temp").Set(-1.5);
  reg.GetHistogram("lat_us").RecordMicros(50.0);

  JsonValue root;
  // Built with append, not operator+: GCC 12's -Wrestrict misfires on the
  // inlined concatenation chain.
  std::string wrapped;
  wrapped.push_back('{');
  wrapped.append(reg.JsonFields());
  wrapped.push_back('}');
  ASSERT_TRUE(JsonParser(wrapped).Parse(&root));
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  ASSERT_NE(root.Find("hits_total"), nullptr);
  EXPECT_DOUBLE_EQ(root.Find("hits_total")->number, 7.0);
  EXPECT_DOUBLE_EQ(root.Find("temp")->number, -1.5);
  ASSERT_NE(root.Find("lat_us_p50"), nullptr);
  ASSERT_NE(root.Find("lat_us_count"), nullptr);
  EXPECT_DOUBLE_EQ(root.Find("lat_us_count")->number, 1.0);
}

TEST(ObsMetricsTest, ConcurrentRegistrationAndRecording) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kOps; ++i) {
        reg.GetCounter("shared_total").Inc();
        reg.GetGauge("shared_gauge").Set(static_cast<double>(t));
        reg.GetHistogram("shared_us").RecordMicros(static_cast<double>(i));
        if (i % 500 == 0) (void)reg.PrometheusText();  // export races record
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.CounterValue("shared_total"),
            static_cast<uint64_t>(kThreads) * kOps);
  JsonValue root;
  std::string wrapped;
  wrapped.push_back('{');
  wrapped.append(reg.JsonFields());
  wrapped.push_back('}');
  EXPECT_TRUE(JsonParser(wrapped).Parse(&root));
}

// ---------------------------------------------------------------------------
// PhaseSeries (gauge side exists in both ESD_OBS modes)

TEST(ObsPhaseTest, PhaseSeriesAccumulatesPerPhaseGauges) {
  MetricRegistry reg;
  {
    obs::PhaseSeries phases(&reg);
    phases.Begin("test.alpha");
    // Keep the phase visibly non-empty on any clock resolution.
    const uint64_t start = obs::MonotonicNanos();
    while (obs::MonotonicNanos() - start < 100'000) {
    }
    phases.Begin("test.beta");
  }  // destructor ends beta
  EXPECT_GT(reg.GaugeValue("esd_phase_test_alpha_seconds"), 0.0);
  EXPECT_GE(reg.GaugeValue("esd_phase_test_beta_seconds"), 0.0);
  EXPECT_EQ(reg.NumMetrics(), 2u);

  // A second series on the same registry accumulates (benches diff).
  const double before = reg.GaugeValue("esd_phase_test_alpha_seconds");
  {
    obs::PhaseSeries phases(&reg);
    phases.Begin("test.alpha");
    const uint64_t start = obs::MonotonicNanos();
    while (obs::MonotonicNanos() - start < 100'000) {
    }
  }
  EXPECT_GT(reg.GaugeValue("esd_phase_test_alpha_seconds"), before);
}

// ---------------------------------------------------------------------------
// Trace spans + Chrome export (compiled in only when ESD_OBS=ON)

#if ESD_OBS_TRACING

TEST(ObsTraceTest, SpanRecordsOnDestruction) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  const uint64_t before = tracer.NumEventsRecorded();
  {
    ESD_TRACE_SPAN("obs_test.alpha_span");
  }
  EXPECT_EQ(tracer.NumEventsRecorded(), before + 1);
  EXPECT_NE(tracer.ChromeTraceJson().find("obs_test.alpha_span"),
            std::string::npos);
}

TEST(ObsTraceTest, DisabledTracerSkipsRecording) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(false);
  {
    ESD_TRACE_SPAN("obs_test.should_not_appear");
  }
  tracer.SetEnabled(true);
  EXPECT_EQ(tracer.NumEventsRecorded(), 0u);
  EXPECT_EQ(tracer.ChromeTraceJson().find("obs_test.should_not_appear"),
            std::string::npos);
}

TEST(ObsTraceTest, RingWrapKeepsNewestCapacityEvents) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  const uint64_t n = Tracer::kRingCapacity + 123;
  for (uint64_t i = 0; i < n; ++i) {
    tracer.RecordComplete("obs_test.wrap", i, 1);
  }
  EXPECT_EQ(tracer.NumEventsRecorded(), n);  // monotonic, counts overwrites
  const std::string json = tracer.ChromeTraceJson();
  size_t exported = 0;
  for (size_t pos = json.find("obs_test.wrap"); pos != std::string::npos;
       pos = json.find("obs_test.wrap", pos + 1)) {
    ++exported;
  }
  EXPECT_EQ(exported, Tracer::kRingCapacity);  // the newest ring's worth
}

// The acceptance-criterion schema test: a parallel build must export valid
// Chrome trace JSON with per-phase spans and per-worker-thread tracks.
TEST(ObsTraceTest, ParallelBuildExportsValidChromeTrace) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  graph::Graph g = gen::BarabasiAlbert(300, 5, 7);
  core::FrozenEsdIndex frozen = core::BuildFrozenIndex(g, core::EsdScorer(), 3);
  ASSERT_GT(frozen.NumEntries(), 0u);

  JsonValue root;
  ASSERT_TRUE(JsonParser(tracer.ChromeTraceJson()).Parse(&root));
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  std::set<std::string> span_names;
  std::set<std::string> thread_names;
  for (const JsonValue& e : events->array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_EQ(ph->kind, JsonValue::Kind::kString);
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(e.Find("pid"), nullptr);
    EXPECT_DOUBLE_EQ(e.Find("pid")->number, 1.0);
    ASSERT_NE(e.Find("tid"), nullptr);
    EXPECT_EQ(e.Find("tid")->kind, JsonValue::Kind::kNumber);
    if (ph->str == "X") {
      EXPECT_FALSE(name->str.empty());
      const JsonValue* ts = e.Find("ts");
      const JsonValue* dur = e.Find("dur");
      ASSERT_NE(ts, nullptr);
      ASSERT_NE(dur, nullptr);
      EXPECT_EQ(ts->kind, JsonValue::Kind::kNumber);
      EXPECT_GE(dur->number, 0.0);
      span_names.insert(name->str);
    } else {
      ASSERT_EQ(ph->str, "M") << "unexpected event phase " << ph->str;
      EXPECT_EQ(name->str, "thread_name");
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* tname = args->Find("name");
      ASSERT_NE(tname, nullptr);
      thread_names.insert(tname->str);
    }
  }
  // The builder's phase spans (recorded on the calling thread).
  EXPECT_TRUE(span_names.count("build.dsu_init"));
  EXPECT_TRUE(span_names.count("build.orientation"));
  EXPECT_TRUE(span_names.count("build.clique_enum"));
  EXPECT_TRUE(span_names.count("build.extract_sizes"));
  EXPECT_TRUE(span_names.count("build.slab_sort"));
  // Per-chunk spans from the parallel fan-out.
  EXPECT_TRUE(span_names.count("build.clique_enum.chunk"));
  // The pool's worker threads registered named tracks.
  size_t pool_tracks = 0;
  for (const std::string& t : thread_names) {
    if (t.rfind("esd-pool-", 0) == 0) ++pool_tracks;
  }
  EXPECT_GE(pool_tracks, 2u);  // 3 build threads = main + 2 workers
}

TEST(ObsTraceTest, ConcurrentRecordingAndExport) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  std::atomic<bool> stop{false};
  std::atomic<int> warmed{0};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&stop, &warmed] {
      {
        ESD_TRACE_SPAN("obs_test.concurrent");
      }
      warmed.fetch_add(1, std::memory_order_relaxed);
      while (!stop.load(std::memory_order_relaxed)) {
        ESD_TRACE_SPAN("obs_test.concurrent");
      }
    });
  }
  // Don't race past threads that haven't been scheduled yet: every
  // recorder lands one span before the exports start.
  while (warmed.load(std::memory_order_relaxed) < 4) std::this_thread::yield();
  std::string last;
  for (int i = 0; i < 20; ++i) last = Tracer::Global().ChromeTraceJson();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : recorders) t.join();
  JsonValue root;
  EXPECT_TRUE(JsonParser(last).Parse(&root)) << "torn export is not JSON";
  // The final quiescent export must also parse and contain the span.
  EXPECT_NE(tracer.ChromeTraceJson().find("obs_test.concurrent"),
            std::string::npos);
}

#else  // !ESD_OBS_TRACING

TEST(ObsTraceTest, CompiledOutStubsReportUnavailable) {
  Tracer& tracer = Tracer::Global();
  EXPECT_FALSE(tracer.enabled());
  {
    ESD_TRACE_SPAN("obs_test.compiled_out");
  }
  EXPECT_EQ(tracer.NumEventsRecorded(), 0u);
  EXPECT_EQ(tracer.ChromeTraceJson(), "{\"traceEvents\":[]}");
  std::string error;
  EXPECT_FALSE(tracer.WriteChromeTrace("/tmp/unused.json", &error));
  EXPECT_NE(error.find("ESD_OBS=OFF"), std::string::npos);
}

#endif  // ESD_OBS_TRACING

// ---------------------------------------------------------------------------
// Engine work counters

TEST(ObsEngineCountersTest, IndexEnginesCountQueries) {
  graph::Graph g = gen::BarabasiAlbert(200, 4, 11);

  core::EsdIndex treap = core::BuildIndex(g);
  (void)treap.Query(5, 2);
  (void)treap.Query(5, 3);
  core::EngineCounters c = treap.Counters();
  EXPECT_EQ(c.queries, 2u);
  EXPECT_GE(c.slab_searches, 2u);
  EXPECT_GE(c.entries_scanned, 2u);

  core::FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  (void)frozen.Query(5, 2);
  c = frozen.Counters();
  EXPECT_EQ(c.queries, 1u);
  EXPECT_GE(c.slab_searches, 1u);
  EXPECT_GE(c.entries_scanned, 1u);
  // Index engines don't drive the online-search fields.
  EXPECT_EQ(c.exact_computations, 0u);
}

// Zero-padded filler is not index work: every index engine counts only the
// H-list or slab entries it walked, so the same padded queries report equal
// entries_scanned on the treap, dynamic and frozen engines.
TEST(ObsEngineCountersTest, PaddedQueriesCountOnlyWalkedEntries) {
  graph::Graph g = gen::BarabasiAlbert(200, 4, 11);
  core::EsdIndex treap = core::BuildIndex(g);
  core::DynamicEsdIndex dyn(g);
  core::FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  const uint32_t m = g.NumEdges();
  uint64_t returned = 0;
  for (const auto& [k, tau] : std::vector<std::pair<uint32_t, uint32_t>>{
           {500, 2}, {m + 10, 1}, {50, 1000}, {3, 2}}) {
    const core::TopKResult want = frozen.Query(k, tau);
    returned += want.size();
    EXPECT_EQ(treap.Query(k, tau), want) << k << " " << tau;
    EXPECT_EQ(dyn.Query(k, tau), want) << k << " " << tau;
  }
  const uint64_t scanned = frozen.Counters().entries_scanned;
  EXPECT_LT(scanned, returned);  // the queries really were padded
  EXPECT_EQ(treap.Counters().entries_scanned, scanned);
  EXPECT_EQ(dyn.Counters().entries_scanned, scanned);
}

TEST(ObsEngineCountersTest, OnlineEngineExposesPruningPower) {
  graph::Graph g = gen::BarabasiAlbert(200, 4, 13);
  std::string error;
  std::unique_ptr<core::EsdQueryEngine> engine =
      core::BuildQueryEngine(g, "online", core::EsdScorer(), &error);
  ASSERT_NE(engine, nullptr) << error;
  (void)engine->Query(5, 2);
  const core::EngineCounters c = engine->Counters();
  EXPECT_EQ(c.queries, 1u);
  EXPECT_GE(c.heap_pops, 1u);
  EXPECT_GE(c.exact_computations, 1u);
}

TEST(ObsEngineCountersTest, DynamicIndexDelegatesAndCountsMutations) {
  graph::Graph g = gen::BarabasiAlbert(120, 3, 17);
  core::DynamicEsdIndex dyn(g);
  (void)dyn.Query(5, 2);
  EXPECT_GE(dyn.Counters().queries, 1u);

  MetricRegistry& global = MetricRegistry::Global();
  const uint64_t inserts_before =
      global.CounterValue("esd_dynamic_inserts_total");
  const uint64_t deletes_before =
      global.CounterValue("esd_dynamic_deletes_total");
  const graph::VertexId v = dyn.AddVertex();
  ASSERT_TRUE(dyn.InsertEdge(v, 0));
  ASSERT_TRUE(dyn.DeleteEdge(v, 0));
  EXPECT_EQ(global.CounterValue("esd_dynamic_inserts_total"),
            inserts_before + 1);
  EXPECT_EQ(global.CounterValue("esd_dynamic_deletes_total"),
            deletes_before + 1);
}

TEST(ObsEngineCountersTest, ExportPublishesGauges) {
  graph::Graph g = gen::BarabasiAlbert(150, 4, 19);
  core::FrozenEsdIndex frozen = core::BuildFrozenIndex(g);
  (void)frozen.Query(10, 2);
  (void)frozen.Query(10, 3);

  MetricRegistry reg;
  core::ExportEngineCounters(frozen, &reg);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("esd_engine_queries"), 2.0);
  EXPECT_GE(reg.GaugeValue("esd_engine_slab_searches"), 2.0);
  EXPECT_GE(reg.GaugeValue("esd_engine_entries_scanned"), 1.0);
  // Re-export overwrites with current lifetime totals, not a second sum.
  (void)frozen.Query(10, 4);
  core::ExportEngineCounters(frozen, &reg);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("esd_engine_queries"), 3.0);
}

TEST(ObsSearchStatsTest, VertexSearchCertifiesZeroBounds) {
  // Star graph: every leaf has degree 1, so at tau = 2 its bound is 0 and
  // the vertex search must certify it without an exact computation.
  const uint32_t n = 50;
  std::vector<graph::Edge> edges;
  for (uint32_t i = 1; i < n; ++i) edges.push_back(graph::MakeEdge(0, i));
  graph::Graph star = graph::Graph::FromEdges(n, std::move(edges));

  baselines::VertexOnlineStats stats;
  auto top = baselines::OnlineVertexTopK(star, 3, 2, &stats);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(stats.zero_bound_skips, n - 1);  // all leaves
  EXPECT_GE(stats.bound_seconds, 0.0);
  EXPECT_LE(stats.exact_computations, static_cast<uint64_t>(n));
}

// ---------------------------------------------------------------------------
// ServiceMetrics on the registry

TEST(ObsServeMetricsTest, SharedRegistryHostsServeMetrics) {
  MetricRegistry reg;
  serve::ServiceMetrics metrics(&reg);
  EXPECT_EQ(&metrics.registry(), &reg);
  metrics.RecordAccepted();
  metrics.RecordCompleted(/*queue_us=*/10.0, /*exec_us=*/5.0);
  metrics.SetQueueDepth(7);

  EXPECT_EQ(reg.CounterValue("esd_serve_accepted_total"), 1u);
  EXPECT_EQ(reg.CounterValue("esd_serve_completed_total"), 1u);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("esd_serve_queue_depth"), 7.0);

  const serve::MetricsSnapshot snap = metrics.Snap();
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.queue_depth, 7u);
  EXPECT_EQ(snap.total.count, 1u);
  EXPECT_NEAR(snap.total.p50_us, 15.0, 15.0 * 0.125);

  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE esd_serve_completed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE esd_serve_total_us summary"),
            std::string::npos);
}

TEST(ObsServeMetricsTest, EmbeddedRegistriesAreIndependent) {
  serve::ServiceMetrics a;
  serve::ServiceMetrics b;
  a.RecordAccepted();
  a.RecordCompleted(1.0, 1.0);
  EXPECT_EQ(a.Snap().completed, 1u);
  // A second default-constructed instance starts from zero — the contract
  // the serve_load sweep relies on between configurations.
  EXPECT_EQ(b.Snap().accepted, 0u);
  EXPECT_EQ(b.Snap().completed, 0u);
}

// The refreeze's write-path metrics are registered (with help text) when a
// live index opens, so a scrape shows them before the first epoch; a delta
// refreeze then records its build time and its patched slots.
TEST(ObsLiveMetricsTest, RefreezeMetricsAreRegisteredAtOpen) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("esd_obs_live_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  MetricRegistry reg;
  live::LiveOptions options;
  options.wal_path = (dir / "wal.bin").string();
  options.refreeze_every = 0;
  options.registry = &reg;
  std::string error;
  auto index = live::LiveEsdIndex::Open(gen::BarabasiAlbert(30, 2, 1),
                                        options, &error);
  ASSERT_NE(index, nullptr) << error;

  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# HELP esd_live_stage_freeze_us "), std::string::npos);
  EXPECT_NE(text.find("# TYPE esd_live_stage_freeze_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP esd_live_refreeze_changed_slots_total "),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE esd_live_refreeze_changed_slots_total counter"),
            std::string::npos);

  // An insert to a new vertex: effective, so some slots change.
  ASSERT_TRUE(index->Apply(live::LiveUpdate{live::UpdateKind::kInsert, 0, 35},
                           &error))
      << error;
  ASSERT_TRUE(index->RefreezeNow());
  EXPECT_GT(reg.CounterValue("esd_live_refreeze_changed_slots_total"), 0u);
  EXPECT_EQ(reg.GetHistogram("esd_live_stage_freeze_us").Snap().count, 1u);
  index.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace esd
