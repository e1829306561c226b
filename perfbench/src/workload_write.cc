// Workload `write-mixed`: a LiveEsdIndex with its default options (fsync
// per ApplyBatch, refreeze every 256 updates) under two open loops:
//
//   writer  batches of 16 uniform-random updates (~70% inserts) at 2000
//           updates/s; a batch (the op) is timed from when it was due to
//           the publish of the first epoch covering it, observed through
//           SetEpochListener, and that time is split at its
//           acknowledgement (write_ack, then visible lag);
//   reader  ~20k queries/s through the service's epoch-provider mode,
//           timed from when each was due; one answer in kCheckEvery is
//           compared with a direct Query on the epoch it came from.
//
// The one workload on the write path (WAL, maintenance, refreeze,
// publish); reads share the CPU with refreezes. After the window the
// final epoch is checked against a from-scratch build of the edge set the
// benchmark tracked from its own update stream.

#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "core/index_builder.h"
#include "graph/builder.h"
#include "live/live_index.h"
#include "measure.h"
#include "obs/request_context.h"
#include "serve/query_service.h"

namespace perfbench {

namespace {

using esd::live::LiveEsdIndex;
using esd::live::LiveUpdate;
using esd::serve::EsdQueryService;
using esd::serve::MetricsSnapshot;
using esd::serve::QueryRequest;
using esd::serve::QueryResponse;
using esd::serve::ResponseStatus;
using esd::serve::ResultCache;

constexpr size_t kBatch = 16;
constexpr int kUpdatesPerSecond = 2000;
constexpr int kReadsPerSecond = 20000;
constexpr double kInsertShare = 0.7;
/// One read in this many has its answer checked (PublishLog::CheckAnswer).
constexpr uint64_t kCheckEvery = 64;

uint64_t EdgeKey(esd::graph::VertexId u, esd::graph::VertexId v) {
  const esd::graph::Edge e = esd::graph::MakeEdge(u, v);
  return (static_cast<uint64_t>(e.u) << 32) | e.v;
}

/// Name of the filesystem holding `path`, as a JSON string (the WAL's
/// durability depends on whether fsync reaches a disk).
std::string FilesystemJson(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "\"unknown\"";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "\"ext4\"";
    case 0x58465342:
      return "\"xfs\"";
    case 0x9123683E:
      return "\"btrfs\"";
    case 0x01021994:
      return "\"tmpfs\"";
    case 0x794C7630:
      return "\"overlayfs\"";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "\"0x%lx\"",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Epoch publishes seen by the listener: (publish time, applied_seq); the
/// slab entries scanned by the epochs readers have left behind; and the
/// check of sampled answers against the epoch that is serving.
struct PublishLog {
  enum class Check { kSkipped, kMatch, kMismatch };

  std::mutex mu;
  std::vector<std::pair<uint64_t, uint64_t>> events;  // guarded by mu
  std::shared_ptr<const esd::live::EpochSnapshot> serving;  // guarded by mu
  uint64_t scanned = 0;                                   // guarded by mu

  void OnPublish(std::shared_ptr<const esd::live::EpochSnapshot> snap,
                 uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu);
    events.emplace_back(NowNs(), seq);
    if (serving != nullptr) scanned += serving->index.Counters().entries_scanned;
    serving = std::move(snap);
  }
  /// Starts a window: forgets earlier publishes and scans.
  void Reset(std::shared_ptr<const esd::live::EpochSnapshot> snap) {
    std::lock_guard<std::mutex> lock(mu);
    events.clear();
    scanned = 0;
    check_scanned = 0;
    serving = std::move(snap);
    if (serving != nullptr) base = serving->index.Counters().entries_scanned;
  }
  /// Slab entries the service scanned since Reset (the checks' own scans
  /// left out).
  uint64_t ScannedSinceReset() {
    std::lock_guard<std::mutex> lock(mu);
    return scanned + serving->index.Counters().entries_scanned - base -
           check_scanned;
  }
  /// Compares an answer the service gave for `rq` from `epoch` with a
  /// direct FrozenEsdIndex::Query on that epoch's image. Only the serving
  /// epoch is held, so answers from an epoch already replaced are skipped.
  Check CheckAnswer(uint64_t epoch, const QueryRequest& rq,
                    const esd::core::TopKResult& got) {
    std::lock_guard<std::mutex> lock(mu);
    if (serving == nullptr || serving->epoch != epoch) return Check::kSkipped;
    const esd::core::FrozenEsdIndex& index = serving->index;
    const esd::core::TopKResult want =
        index.Query(rq.k, rq.tau, rq.pad_with_zero_edges);
    // Query counts its slab prefix as scanned; the unpadded answer is that
    // prefix (and counts it too).
    check_scanned += 2 * index.Query(rq.k, rq.tau, false).size();
    return want == got ? Check::kMatch : Check::kMismatch;
  }

 private:
  uint64_t base = 0;           // guarded by mu
  uint64_t check_scanned = 0;  // guarded by mu
};

/// The reader's tallies, written from the service worker's callbacks (and
/// from the submitting thread when a request bounces at admission).
struct ReaderLog {
  std::mutex mu;
  FineHistogram latency;  // guarded by mu
  uint64_t not_ok = 0;    // guarded by mu
  uint64_t checked = 0;   // guarded by mu: sampled answers that matched
  uint64_t wrong = 0;     // guarded by mu: sampled answers that did not
};

/// Serve-stage time per completed query, in ns, between two snapshots.
double StageNsPerQuery(const MetricsSnapshot& a, const MetricsSnapshot& b,
                       esd::obs::Stage stage, double queries) {
  const size_t i = static_cast<size_t>(stage);
  return (b.stages[i].sum_us - a.stages[i].sum_us) * 1e3 / queries;
}

/// The kServe group's per-layer metrics of the reader, from service and
/// cache snapshots taken at the window's ends; `scanned` is the slab
/// entries the reader's epochs scanned.
void ReportServe(const MetricsSnapshot& a, const MetricsSnapshot& b,
                 const ResultCache::Stats& ca, const ResultCache::Stats& cb,
                 uint64_t scanned, std::map<std::string, double>* layer) {
  using esd::obs::Stage;
  const double q =
      std::max<double>(1.0, static_cast<double>(b.completed - a.completed));
  (*layer)["serve.queue_wait_ns_per_query"] =
      StageNsPerQuery(a, b, Stage::kQueueWait, q);
  (*layer)["serve.queue_wait_p95_us"] = b.queue_wait.p95_us;
  (*layer)["serve.batch_formation_ns_per_query"] =
      StageNsPerQuery(a, b, Stage::kBatchFormation, q);
  (*layer)["serve.batch_size_mean"] =
      q / std::max<double>(1.0, static_cast<double>(b.batches - a.batches));
  (*layer)["serve.merge_ns_per_query"] =
      StageNsPerQuery(a, b, Stage::kMerge, q);
  (*layer)["serve.cache_lookup_ns_per_query"] =
      StageNsPerQuery(a, b, Stage::kCacheLookup, q);
  (*layer)["serve.slab_scan_ns_per_query"] =
      StageNsPerQuery(a, b, Stage::kSlabScan, q);
  (*layer)["serve.padding_scan_ns_per_query"] =
      StageNsPerQuery(a, b, Stage::kPaddingScan, q);
  (*layer)["core.frozen.entries_scanned_per_query"] =
      static_cast<double>(scanned) / q;
  const double hits = static_cast<double>(cb.hits - ca.hits);
  const double lookups = hits + static_cast<double>(cb.misses - ca.misses);
  (*layer)["serve.cache_hit_rate"] = lookups > 0 ? hits / lookups : 0.0;
  (*layer)["serve.cache_evictions_per_query"] =
      static_cast<double>(cb.evictions - ca.evictions) / q;
}

/// Compares the final epoch with a from-scratch image, edge by edge: the
/// same live edges, each with the same component-size multiset. Returns
/// the number of differing edges.
uint64_t CountDifferences(const esd::core::FrozenEsdIndex& live,
                          const esd::core::FrozenEsdIndex& fresh,
                          const esd::graph::Graph& fresh_graph) {
  uint64_t diffs = 0;
  uint64_t live_edges = 0;
  for (esd::graph::EdgeId e = 0; e < live.EdgeSlotCount(); ++e) {
    if (!live.IsLive(e)) continue;
    ++live_edges;
    const esd::graph::Edge uv = live.EdgeAt(e);
    const esd::graph::EdgeId f = fresh_graph.FindEdge(uv.u, uv.v);
    if (f == esd::graph::kNoEdge) {
      ++diffs;
      continue;
    }
    const auto a = live.EdgeSizes(e);
    const auto b = fresh.EdgeSizes(f);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) ++diffs;
  }
  if (live_edges != fresh.NumRegisteredEdges()) {
    diffs += live_edges > fresh.NumRegisteredEdges()
                 ? live_edges - fresh.NumRegisteredEdges()
                 : fresh.NumRegisteredEdges() - live_edges;
  }
  return diffs;
}

}  // namespace

Result RunWrite(const Options& options) {
  namespace fs = std::filesystem;
  Result result;
  result.groups = {Group::kBuild, Group::kServe, Group::kLive, Group::kObs};

  const fs::path dir = fs::absolute(fs::path(options.work_dir) /
                                    ("perfbench-wal-" +
                                     std::to_string(getpid())));
  std::error_code ec;
  const std::vector<uint32_t> taus{1, 2, 3, 4, 6, 8};
  const std::vector<uint32_t> ks{10, 1, 50, 100};
  const Zipf tau_zipf(taus.size(), 1.0);
  const Zipf k_zipf(ks.size(), 1.0);

  std::unique_ptr<esd::graph::Graph> g;
  std::unique_ptr<LiveEsdIndex> live;
  std::unique_ptr<EsdQueryService> service;
  PublishLog publishes;
  std::string open_error;
  // Stop the service, then destroy the index (which drains its refreeze
  // pool, so no listener call is left in flight), then the service.
  auto teardown = [&] {
    if (live != nullptr) live->SetEpochListener({});
    if (service != nullptr) service->Stop();
    live.reset();
    service.reset();
    fs::remove_all(dir, ec);
  };
  const double setup_s = TimeSetup([&] {
    teardown();
    fs::create_directories(dir, ec);
    g = std::make_unique<esd::graph::Graph>(
        PokecLikeGraph(options.seed, options.scale));
    esd::live::LiveOptions lo;
    lo.wal_path = (dir / "wal.bin").string();
    live = LiveEsdIndex::Open(*g, lo, &open_error);
    if (live == nullptr) return;
    EsdQueryService::Options so;
    so.num_threads = 1;
    so.max_queue = 1 << 15;
    so.cache_bytes = 32u << 20;
    LiveEsdIndex* index = live.get();
    service = std::make_unique<EsdQueryService>(
        EsdQueryService::EpochEngineProvider([index] {
          auto snap = index->CurrentSnapshot();
          return EsdQueryService::PinnedEngine{
              std::shared_ptr<const esd::core::EsdQueryEngine>(snap,
                                                               &snap->index),
              snap->epoch};
        }),
        so);
    EsdQueryService* svc = service.get();
    live->SetEpochListener(
        [svc, index, &publishes](uint64_t epoch, uint64_t seq) {
          svc->NotifyEpoch(epoch);
          publishes.OnPublish(index->CurrentSnapshot(), seq);
        });
    esd::util::Rng rng(options.seed ^ 0x5EEDull);
    for (int i = 0; i < 2000; ++i) {
      QueryRequest rq;
      rq.tau = taus[tau_zipf.Sample(rng)];
      rq.k = ks[k_zipf.Sample(rng)];
      (void)service->Query(rq);
    }
  });
  if (live == nullptr) {
    teardown();
    result.Fail(1, "live index open failed: " + open_error);
    return result;
  }

  // The edge set the update stream should leave behind.
  std::unordered_set<uint64_t> edges;
  edges.reserve(g->NumEdges() * 2);
  for (const esd::graph::Edge& e : g->Edges()) edges.insert(EdgeKey(e.u, e.v));
  const esd::graph::VertexId n = g->NumVertices();

  const esd::live::LiveStats stats_before = live->Stats();
  const MetricsSnapshot serve_before = service->metrics().Snap();
  const ResultCache::Stats cache_before = service->cache()->Snap();
  publishes.Reset(live->CurrentSnapshot());

  std::atomic<uint64_t> batches_done{0};
  Window window(options, [&] { return batches_done.load(); });
  const uint64_t start = NowNs();
  window.Start();

  // Writer: one batch every kBatch / kUpdatesPerSecond seconds.
  struct Batch {
    size_t slice;
    uint64_t due_ns;
    uint64_t ack_ns;
    uint64_t seq;  // applied_seq once acknowledged
  };
  std::vector<Batch> batches;
  uint64_t apply_ns = 0, write_failures = 0, lag_max = 0, writer_late_ns = 0;
  std::thread writer([&] {
    const double period_ns = 1e9 * kBatch / kUpdatesPerSecond;
    esd::util::Rng rng(options.seed * 0xD1B54A32D192ED03ull + 7);
    std::vector<LiveUpdate> batch(kBatch);
    for (uint64_t i = 0; !window.done(); ++i) {
      const uint64_t due = start + static_cast<uint64_t>(i * period_ns);
      const size_t slice = window.slice();
      const uint64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      if (window.done()) break;
      for (LiveUpdate& up : batch) {
        up.kind = rng.NextBool(kInsertShare) ? esd::live::UpdateKind::kInsert
                                             : esd::live::UpdateKind::kDelete;
        up.u = static_cast<esd::graph::VertexId>(rng.NextBounded(n));
        up.v = static_cast<esd::graph::VertexId>(rng.NextBounded(n - 1));
        if (up.v >= up.u) ++up.v;  // uniform over pairs with v != u
      }
      const uint64_t t0 = NowNs();
      writer_late_ns = std::max(writer_late_ns, t0 - std::min(t0, due));
      const esd::live::ApplyResult res = live->ApplyBatchTyped(batch);
      const uint64_t t1 = NowNs();
      RecordSpan("bench.apply_batch", t0, t1);
      apply_ns += t1 - t0;
      if (res.status != esd::live::ApplyStatus::kOk ||
          res.processed != batch.size()) {
        ++write_failures;
      }
      for (size_t j = 0; j < res.processed; ++j) {
        const uint64_t key = EdgeKey(batch[j].u, batch[j].v);
        if (batch[j].kind == esd::live::UpdateKind::kInsert) {
          edges.insert(key);
        } else {
          edges.erase(key);
        }
      }
      const esd::live::LiveStats s = live->Stats();
      batches.push_back(Batch{slice, due, t1, s.applied_seq});
      lag_max = std::max(lag_max, s.snapshot_lag);
      batches_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Reader: every query due by now is submitted, each timed from its due
  // time to its callback.
  ReaderLog reads;
  uint64_t reads_sent = 0, reader_late_ns = 0;
  std::thread reader([&] {
    esd::util::Rng rng(options.seed * 0xA0761D6478BD642Full + 11);
    const double gap_ns = 1e9 / kReadsPerSecond;
    while (!window.done()) {
      const uint64_t now = NowNs();
      for (uint64_t due = start + static_cast<uint64_t>(reads_sent * gap_ns);
           due <= now;
           due = start + static_cast<uint64_t>(reads_sent * gap_ns)) {
        reader_late_ns = std::max(reader_late_ns, NowNs() - due);
        QueryRequest rq;
        rq.tau = taus[tau_zipf.Sample(rng)];
        rq.k = ks[k_zipf.Sample(rng)];
        const bool sampled = reads_sent % kCheckEvery == 0;
        service->SubmitAsync(rq, [&reads, &publishes, due, sampled,
                                  rq](QueryResponse resp) {
          const uint64_t t = NowNs();
          const bool ok = resp.status == ResponseStatus::kOk;
          const PublishLog::Check check =
              sampled && ok
                  ? publishes.CheckAnswer(resp.ctx.epoch, rq, resp.result)
                  : PublishLog::Check::kSkipped;
          std::lock_guard<std::mutex> lock(reads.mu);
          reads.latency.AddNs(t - due);
          if (!ok) ++reads.not_ok;
          reads.checked += check == PublishLog::Check::kMatch;
          reads.wrong += check == PublishLog::Check::kMismatch;
        });
        ++reads_sent;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  writer.join();
  reader.join();
  window.Join();
  service->Stop();  // serves every admitted read before returning
  const MetricsSnapshot serve_after = service->metrics().Snap();
  const ResultCache::Stats cache_after = service->cache()->Snap();
  live->SetEpochListener({});
  const uint64_t scanned = publishes.ScannedSinceReset();
  std::vector<std::pair<uint64_t, uint64_t>> published;
  {
    std::lock_guard<std::mutex> lock(publishes.mu);
    published = publishes.events;
  }

  // Final check: refreeze, then compare with a from-scratch build.
  const bool refrozen = live->RefreezeNow();
  const esd::live::LiveStats stats_after = live->Stats();
  const auto final_epoch = live->CurrentSnapshot();
  esd::graph::GraphBuilder builder(n);
  builder.Reserve(edges.size());
  for (const uint64_t key : edges) {
    builder.AddEdge(static_cast<esd::graph::VertexId>(key >> 32),
                    static_cast<esd::graph::VertexId>(key & 0xFFFFFFFFu));
  }
  const esd::graph::Graph final_graph = builder.Build();
  BuildSamples samples;
  double build_ms = 0;
  const esd::core::FrozenEsdIndex fresh = samples.Build(final_graph, &build_ms);
  if (options.trace) samples.TimeEdgeSupport(final_graph);

  const uint64_t updates = batches.size() * kBatch;
  result.attempted = batches.size() + reads_sent;
  result.Fail(write_failures, "ApplyBatch calls not fully applied");
  result.Fail(reads.not_ok, "reads not ok (rejected, missed or shut down)");
  result.Fail(reads_sent - reads.latency.count(), "reads never answered");
  result.Fail(reads.wrong, "sampled reads differ from a direct Query");
  result.Fail(reads.checked + reads.wrong == 0 ? 1 : 0,
              "no sampled read answer could be checked");
  result.Fail(refrozen ? 0 : 1, "final RefreezeNow failed");
  result.Fail(final_epoch->applied_seq != stats_after.applied_seq ? 1 : 0,
              "final epoch does not cover every applied update");
  result.Fail(CountDifferences(final_epoch->index, fresh, final_graph),
              "final-epoch edges differ from a from-scratch build");
  result.Fail(stats_after.publish_races - stats_before.publish_races,
              "publish races");
  result.Fail(stats_after.refreeze_failures - stats_before.refreeze_failures,
              "refreeze failures");

  // Per batch: the acknowledgement (due -> ApplyBatch returned) and the
  // visibility (due -> publish of the first epoch covering it, and not
  // before the acknowledgement). Batches no automatic publish covered
  // before the window closed are left out of visibility: the final
  // refreeze is the check's, not the workload's.
  FineHistogram ack_latency;
  SlicedLatency visible_latency;
  std::vector<double> lag_ms;  // acknowledgement -> publish
  size_t p = 0;
  for (const Batch& b : batches) {
    ack_latency.AddNs(b.ack_ns - b.due_ns);
    while (p < published.size() && published[p].second < b.seq) ++p;
    if (p == published.size()) continue;
    const uint64_t visible_ns = std::max(published[p].first, b.ack_ns);
    visible_latency.AddNs(b.slice, visible_ns - b.due_ns);
    lag_ms.push_back(static_cast<double>(visible_ns - b.ack_ns) * 1e-6);
  }
  std::vector<double> publish_gap_ms;
  for (size_t i = 1; i < published.size(); ++i) {
    publish_gap_ms.push_back(
        static_cast<double>(published[i].first - published[i - 1].first) *
        1e-6);
  }

  const double ack_p50 = ack_latency.QuantileUs(0.5);
  const double ack_p99 = ack_latency.QuantileUs(0.99);
  const FineHistogram visible = visible_latency.Total();
  std::vector<double> lag_sorted = lag_ms;
  const double lag_p50 = Quantile(&lag_sorted, 0.5);
  const double lag_p99 = Quantile(&lag_sorted, 0.99);
  const double bytes_per_edge =
      static_cast<double>(final_epoch->index.MemoryBytes()) /
      static_cast<double>(final_epoch->index.NumRegisteredEdges());
  result.e2e["setup_s"] = setup_s;
  result.e2e["index_bytes_per_edge"] = bytes_per_edge;
  ReportCosts(window, visible_latency, &result);
  result.e2e["ops_per_s"] = window.OpsPerSecond();
  result.e2e["cpu_ns_per_op"] = window.CpuNsPerOp();
  samples.Report(fresh, &result.layer);
  ReportServe(serve_before, serve_after, cache_before, cache_after,
              scanned, &result.layer);

  // Live layer. Span-based numbers come from the traced slices only.
  std::map<std::string, double>& layer = result.layer;
  const double up = std::max<double>(1.0, static_cast<double>(updates));
  layer["live.apply_busy_frac"] =
      static_cast<double>(apply_ns) * 1e-9 / window.wall_s();
  uint64_t apply_span_ns = 0, maintain_ns = 0, traced_batches = 0;
  window.spans().NestedTotals("bench.apply_batch", "maintain.",
                              &apply_span_ns, &maintain_ns, &traced_batches);
  const double traced_updates =
      std::max<double>(1.0, static_cast<double>(traced_batches * kBatch));
  layer["live.maintain_us_per_update"] =
      static_cast<double>(maintain_ns) * 1e-3 / traced_updates;
  layer["live.apply_self_us_per_update"] =
      static_cast<double>(apply_span_ns - maintain_ns) * 1e-3 /
      traced_updates;
  std::vector<double> refreeze_ms;
  for (const SpanCollector::Span& s : window.spans().Spans("live.refreeze")) {
    refreeze_ms.push_back(static_cast<double>(s.dur_ns) * 1e-6);
  }
  layer["live.refreeze_ms_p50"] = Median(refreeze_ms);
  layer["live.refreeze_ms_max"] =
      refreeze_ms.empty()
          ? 0.0
          : *std::max_element(refreeze_ms.begin(), refreeze_ms.end());
  layer["live.publish_interval_ms_p50"] = Median(publish_gap_ms);
  layer["live.snapshot_lag_max"] = static_cast<double>(lag_max);
  layer["live.wal_bytes_per_update"] =
      static_cast<double>(stats_after.wal_bytes - stats_before.wal_bytes) / up;
  layer["live.noop_frac"] =
      static_cast<double>(stats_after.noops - stats_before.noops) / up;
  layer["live.write_ack_p50_us"] = ack_p50;
  layer["live.write_ack_p99_us"] = ack_p99;
  layer["live.visible_lag_p50_ms"] = lag_p50;
  layer["live.visible_lag_p99_ms"] = lag_p99;
  layer["live.read_p99_us"] = reads.latency.QuantileUs(0.99);

  result.named = {
      {"setup_s", setup_s, "s", kSetupReps},
      {"write_visible_p50_ms", visible.QuantileUs(0.5) * 1e-3, "ms",
       visible.count()},
      {"write_visible_p99_ms", visible.QuantileUs(0.99) * 1e-3, "ms",
       visible.count()},
      {"write_ack_p50_us", ack_p50, "us", ack_latency.count()},
      {"write_ack_p99_us", ack_p99, "us", ack_latency.count()},
      {"visible_lag_p50_ms", lag_p50, "ms", lag_ms.size()},
      {"visible_lag_p99_ms", lag_p99, "ms", lag_ms.size()},
      {"query_p50_us", reads.latency.QuantileUs(0.5), "us",
       reads.latency.count()},
      {"query_p99_us", reads.latency.QuantileUs(0.99), "us",
       reads.latency.count()},
      {"index_bytes_per_edge", bytes_per_edge, "B", 0},
  };
  char late[64];
  std::snprintf(late, sizeof(late), "%.3f",
                static_cast<double>(writer_late_ns) * 1e-6);
  result.envelope = {
      {"graph_n", std::to_string(n)},
      {"graph_m", std::to_string(g->NumEdges())},
      {"loop", "\"open\""},
      {"wal_filesystem", FilesystemJson(dir.string())},
      {"flush_policy", "\"fsync per ApplyBatch\""},
      {"refreeze_every", std::to_string(live->options().refreeze_every)},
      {"write_updates_per_s", std::to_string(kUpdatesPerSecond)},
      {"write_batch", std::to_string(kBatch)},
      {"read_queries_per_s", std::to_string(kReadsPerSecond)},
      {"reads_checked", std::to_string(reads.checked + reads.wrong)},
      {"reads_sampled", std::to_string((reads_sent + kCheckEvery - 1) /
                                       kCheckEvery)},
      {"writer_max_late_ms", late},
  };
  std::snprintf(late, sizeof(late), "%.3f",
                static_cast<double>(reader_late_ns) * 1e-6);
  result.envelope.emplace_back("reader_max_late_ms", late);
  teardown();
  return result;
}

}  // namespace perfbench
