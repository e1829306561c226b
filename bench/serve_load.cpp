// Serving-layer load generator: drives EsdQueryService over one shared
// FrozenEsdIndex with a Zipfian (tau, k) mix, in two modes:
//
//   closed loop — C client threads each submit-and-wait in a tight loop
//                 (throughput-bound; sweeps the service worker count),
//   open loop   — one submitter paces requests at a fixed arrival rate with
//                 per-request deadlines (latency/shedding under load), and
//   live mixed  — same closed-loop readers, but the engine is a LiveEsdIndex
//                 with a background writer streaming WAL-durable updates at
//                 ESD_WRITE_RATE updates/s (default 2000, ~70% inserts);
//                 reports read tails plus snapshot staleness (seq lag and
//                 epoch age) while epochs hot-swap under the readers.
//
// With --socket <host:port> the binary instead acts as a network load
// client against a running `esd_server --listen` (binary wire protocol),
// sweeping connection count {1,4,16,64} x pipelining depth {1,8} and
// reporting client-side throughput and p50/p95/p99 per point. Exits
// nonzero if any response fails to parse or any cid comes back out of
// order — the wire protocol's ordering guarantee is part of what this
// mode measures.
//
// ESD_SCORER=esd|truss|egobw selects the diversity scorer the whole run
// serves (default esd); every JSON line carries a "scorer" column so
// harness scripts can compare scorers on identical workloads.
//
// Reports throughput plus p50/p95/p99 end-to-end latency and the per-stage
// (queue wait vs execute) tails from the serve metrics layer, as human
// tables and as the machine-readable JSON lines bench_common.h emits.
// Closed-loop rows also carry the cost of one request to the whole
// process, clients included: allocs_per_request (this binary counts
// operator new) and cpu_ns_per_request (process CPU time). Every row that
// carries the service's counters has inline_hits: the cache hits answered
// on the client's own thread, with no queue or worker.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <time.h>

#include "bench/bench_common.h"
#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/scorer.h"
#include "live/live_index.h"
#include "net/client.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "serve/query_service.h"
#include "util/alloc_count.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

/// CPU time of the whole process (every thread), in nanoseconds.
uint64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// What one closed-loop request cost the process: clients, admission,
/// workers and completion together.
struct RequestCosts {
  double allocs_per_request = 0;
  double cpu_ns_per_request = 0;
};

using esd::core::DiversityScorer;
using esd::core::FrozenEsdIndex;

/// Scorer of this run (ESD_SCORER env; default esd). Set once in main
/// before any worker starts; read-only afterwards.
const DiversityScorer* g_scorer = &esd::core::EsdScorer();
using esd::serve::EsdQueryService;
using esd::serve::MetricsSnapshot;
using esd::serve::QueryRequest;
using esd::serve::ResponseStatus;

/// Zipf(s) sampler over ranks 0..n-1: weight (rank+1)^-s. s=1 matches the
/// usual serving-traffic skew (a few hot parameter combinations, a long
/// tail of rare ones); s=0 degenerates to uniform; larger s concentrates
/// harder — the knob the skew sweep turns.
class Zipf {
 public:
  explicit Zipf(size_t n, double s = 1.0) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += s == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(esd::util::Rng& rng) const {
    const double u = rng.NextDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// The benchmark's request mix: Zipfian over a tau ladder and a k ladder.
struct Workload {
  std::vector<uint32_t> taus{1, 2, 3, 4, 6, 8};
  std::vector<uint32_t> ks{10, 1, 50, 100};  // rank order = popularity
  Zipf tau_zipf{taus.size()};
  Zipf k_zipf{ks.size()};

  Workload() = default;
  /// Custom ladders with one skew exponent for both dimensions — the skew
  /// sweep's constructor.
  Workload(std::vector<uint32_t> t, std::vector<uint32_t> kk, double s)
      : taus(std::move(t)),
        ks(std::move(kk)),
        tau_zipf(taus.size(), s),
        k_zipf(ks.size(), s) {}

  QueryRequest Draw(esd::util::Rng& rng) const {
    QueryRequest rq;
    rq.tau = taus[tau_zipf.Sample(rng)];
    rq.k = ks[k_zipf.Sample(rng)];
    return rq;
  }
};

void PrintHeader() {
  std::printf("%-12s %8s %8s %10s %10s %10s %10s %8s %8s\n", "mode",
              "workers", "clients", "qps", "p50(us)", "p95(us)", "p99(us)",
              "rej", "missed");
}

void PrintRow(const char* mode, unsigned workers, unsigned clients,
              double qps, const MetricsSnapshot& snap) {
  std::printf("%-12s %8u %8u %10.0f %10.1f %10.1f %10.1f %8llu %8llu\n",
              mode, workers, clients, qps, snap.total.p50_us,
              snap.total.p95_us, snap.total.p99_us,
              static_cast<unsigned long long>(snap.rejected),
              static_cast<unsigned long long>(snap.deadline_missed));
}

/// Workload/config fields shared by every serve_load JSON line, so the
/// BENCH_serve_load.json artifact is self-describing: who generated the
/// load (workers/clients/requests) against what.
std::string ConfigJsonFields(unsigned workers, unsigned clients,
                             uint64_t requests) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "\"workers\":%u,\"clients\":%u,\"requests\":%llu", workers,
                clients, static_cast<unsigned long long>(requests));
  return buf;
}

/// The closed-loop cost fields, with their leading comma.
std::string CostJsonFields(const RequestCosts& costs) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ",\"allocs_per_request\":%.3f,\"cpu_ns_per_request\":%.1f",
                costs.allocs_per_request, costs.cpu_ns_per_request);
  return buf;
}

/// One serve_load JSON line; `costs` is set on closed-loop rows only.
void EmitServeJson(const std::string& dataset, const std::string& op,
                   double wall_ms, uint64_t bytes,
                   const MetricsSnapshot& snap, double qps, unsigned workers,
                   unsigned clients, uint64_t requests,
                   const RequestCosts* costs = nullptr) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"serve_load\",\"engine\":\"frozen\",\"scorer\":\"%s\","
      "\"dataset\":\"%s\","
      "\"op\":\"%s\",\"wall_ms\":%.6f,\"bytes\":%llu,\"qps\":%.1f,",
      std::string(g_scorer->Name()).c_str(), dataset.c_str(), op.c_str(),
      wall_ms, static_cast<unsigned long long>(bytes), qps);
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                ",\"queue_p50_us\":%.1f,\"exec_p50_us\":%.1f,"
                "\"mean_us\":%.1f}",
                snap.queue_wait.p50_us, snap.execute.p50_us,
                snap.total.mean_us);
  esd::bench::EmitJsonLine(
      std::string(buf) + ConfigJsonFields(workers, clients, requests) +
      (costs != nullptr ? CostJsonFields(*costs) : std::string()) + "," +
      esd::serve::MetricsJsonFields(snap) + "," +
      esd::serve::StageJsonFields(snap) + tail);
}

/// Closed loop: `clients` threads submit-and-wait until `total` requests
/// have been answered. Returns achieved qps and fills *out_costs from the
/// allocations and process CPU time between the clients' start and their
/// join. cache_bytes > 0 turns on the service's result cache (capacity
/// `cache_entries`, one shard so the capacity semantics are exact) and
/// fills *out_cache.
double RunClosedLoop(const FrozenEsdIndex& frozen, const Workload& mix,
                     unsigned workers, unsigned clients, uint64_t total,
                     MetricsSnapshot* out_snap, double* out_wall_ms,
                     RequestCosts* out_costs, size_t cache_bytes = 0,
                     size_t cache_entries = 16,
                     esd::serve::ResultCache::Stats* out_cache = nullptr) {
  EsdQueryService::Options opts;
  opts.num_threads = workers;
  opts.max_queue = 1 << 15;
  opts.cache_bytes = cache_bytes;
  opts.cache_entries = cache_entries;
  opts.cache_shards = 1;
  EsdQueryService service(frozen, opts);
  // Signed: fetch_sub may legitimately run the shared ticket counter below
  // zero (one overshoot per client); unsigned would wrap and never stop.
  std::atomic<int64_t> remaining{static_cast<int64_t>(total)};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const uint64_t allocs0 = esd::util::AllocCount();
  const uint64_t cpu0 = ProcessCpuNanos();
  esd::util::Timer wall;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      esd::util::Rng rng(0x5E41 + c);
      while (remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
        (void)service.Query(mix.Draw(rng));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();
  const double n = static_cast<double>(total);
  out_costs->cpu_ns_per_request =
      static_cast<double>(ProcessCpuNanos() - cpu0) / n;
  out_costs->allocs_per_request =
      static_cast<double>(esd::util::AllocCount() - allocs0) / n;
  service.Stop();
  *out_snap = service.metrics().Snap();
  if (out_cache != nullptr && service.cache() != nullptr) {
    *out_cache = service.cache()->Snap();
  }
  *out_wall_ms = wall_s * 1e3;
  return static_cast<double>(total) / wall_s;
}

/// Open loop: one submitter paces `total` requests at `rate_qps` with a
/// deadline on every request; responses are collected asynchronously.
double RunOpenLoop(const FrozenEsdIndex& frozen, const Workload& mix,
                   unsigned workers, double rate_qps, uint64_t total,
                   uint64_t deadline_us, MetricsSnapshot* out_snap,
                   double* out_wall_ms) {
  EsdQueryService::Options opts;
  opts.num_threads = workers;
  opts.max_queue = 1024;
  EsdQueryService service(frozen, opts);
  esd::util::Rng rng(0xA11CE);
  const double gap_s = 1.0 / rate_qps;
  std::vector<std::future<esd::serve::QueryResponse>> futures;
  futures.reserve(total);
  esd::util::Timer wall;
  for (uint64_t i = 0; i < total; ++i) {
    QueryRequest rq = mix.Draw(rng);
    rq.deadline_us = deadline_us;
    futures.push_back(service.Submit(rq));
    // Busy-ish pacing: sleep the residual of this request's slot.
    const double target = static_cast<double>(i + 1) * gap_s;
    double now = wall.ElapsedSeconds();
    if (target > now) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(target - now));
    }
  }
  for (auto& f : futures) (void)f.get();
  const double wall_s = wall.ElapsedSeconds();
  service.Stop();
  *out_snap = service.metrics().Snap();
  *out_wall_ms = wall_s * 1e3;
  return static_cast<double>(total) / wall_s;
}

/// Staleness and write-side tallies of one live-mixed run.
struct LiveMixedResult {
  double qps = 0;
  double write_rate_achieved = 0;
  uint64_t updates_applied = 0;
  uint64_t epochs = 0;
  uint64_t lag_max = 0;
  double lag_mean = 0;
  double age_max_s = 0;
  MetricsSnapshot snap;
  double wall_ms = 0;
};

/// Live mixed: `clients` closed-loop readers against a LiveEsdIndex while a
/// background writer streams batches of 16 WAL-durable updates (one fsync
/// per batch) paced at `write_rate` updates/s. The writer samples snapshot
/// staleness (applied_seq minus the published epoch's watermark, and the
/// epoch's age) after every batch.
bool RunLiveMixed(const esd::graph::Graph& g, const Workload& mix,
                  unsigned workers, unsigned clients, uint64_t total_reads,
                  double write_rate, LiveMixedResult* out) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir = fs::temp_directory_path() / "esd_serve_load_live";
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  esd::live::LiveOptions lopts;
  lopts.wal_path = (dir / "wal.bin").string();
  lopts.snapshot_path = (dir / "snapshot.bin").string();
  lopts.scorer = g_scorer->Kind();
  std::string error;
  std::unique_ptr<esd::live::LiveEsdIndex> live =
      esd::live::LiveEsdIndex::Open(g, lopts, &error);
  if (live == nullptr) {
    std::fprintf(stderr, "live index open failed: %s\n", error.c_str());
    return false;
  }

  EsdQueryService::Options opts;
  opts.num_threads = workers;
  opts.max_queue = 1 << 15;
  esd::live::LiveEsdIndex* live_raw = live.get();
  EsdQueryService service(esd::serve::SnapshotProvider([live_raw] {
                            return live_raw->CurrentSnapshot();
                          }),
                          opts);

  std::atomic<int64_t> remaining{static_cast<int64_t>(total_reads)};
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_failed{false};
  // Readers keep serving (past total_reads if needed) until the writer has
  // streamed enough for at least 3 epoch swaps, so the staleness numbers
  // always reflect hot-swapping, not one static boot epoch.
  const uint64_t min_updates = 3 * lopts.refreeze_every + 64;
  std::atomic<uint64_t> updates_sent{0};
  esd::util::Timer wall;

  std::thread writer([&] {
    esd::util::Rng rng(0xF00D);
    const uint64_t n = g.NumVertices();
    constexpr size_t kBatch = 16;
    std::vector<esd::live::LiveUpdate> batch(kBatch);
    uint64_t sent = 0, lag_sum = 0, samples = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (esd::live::LiveUpdate& up : batch) {
        up.kind = rng.NextBool(0.7) ? esd::live::UpdateKind::kInsert
                                    : esd::live::UpdateKind::kDelete;
        up.u = static_cast<esd::graph::VertexId>(rng.NextBounded(n));
        up.v = static_cast<esd::graph::VertexId>(rng.NextBounded(n));
        if (up.u == up.v) up.v = (up.v + 1) % n;
      }
      std::string werr;
      if (live->ApplyBatch(batch, &werr) != batch.size()) {
        std::fprintf(stderr, "live writer failed: %s\n", werr.c_str());
        writer_failed.store(true);
        return;
      }
      sent += kBatch;
      updates_sent.store(sent, std::memory_order_relaxed);
      const esd::live::LiveStats stats = live->Stats();
      out->lag_max = std::max(out->lag_max, stats.snapshot_lag);
      out->age_max_s = std::max(out->age_max_s, stats.snapshot_age_s);
      lag_sum += stats.snapshot_lag;
      ++samples;
      const double target = static_cast<double>(sent) / write_rate;
      const double now = wall.ElapsedSeconds();
      if (target > now) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(target - now));
      }
    }
    out->updates_applied = sent;
    out->lag_mean =
        samples > 0 ? static_cast<double>(lag_sum) / samples : 0.0;
  });

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      esd::util::Rng rng(0x11FE + c);
      while (true) {
        const bool reads_left =
            remaining.fetch_sub(1, std::memory_order_relaxed) > 0;
        const bool writer_pending =
            updates_sent.load(std::memory_order_relaxed) < min_updates &&
            !writer_failed.load(std::memory_order_relaxed);
        if (!reads_left && !writer_pending) break;
        (void)service.Query(mix.Draw(rng));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();
  stop.store(true);
  writer.join();
  service.Stop();

  const esd::live::LiveStats stats = live->Stats();
  out->epochs = stats.refreezes;
  out->write_rate_achieved =
      wall_s > 0 ? static_cast<double>(out->updates_applied) / wall_s : 0.0;
  out->snap = service.metrics().Snap();
  out->wall_ms = wall_s * 1e3;
  out->qps = wall_s > 0 ? static_cast<double>(out->snap.completed) / wall_s
                        : 0.0;
  fs::remove_all(dir, ec);
  return !writer_failed.load();
}

/// Client-side latency percentile (sorts in place; q in [0,1]).
double Percentile(std::vector<double>* lat_us, double q) {
  if (lat_us->empty()) return 0.0;
  std::sort(lat_us->begin(), lat_us->end());
  const size_t idx = std::min(
      lat_us->size() - 1,
      static_cast<size_t>(q * static_cast<double>(lat_us->size())));
  return (*lat_us)[idx];
}

/// One socket-sweep point: `conns` connections, each keeping `pipeline`
/// binary queries in flight against a running esd_server. Latency is
/// measured client-side, send to matching response (pipelined requests
/// therefore include their time queued behind pipeline-mates — the number
/// a real pipelining client experiences). Any parse failure or
/// out-of-order cid echo counts as an error.
struct SocketPointResult {
  double qps = 0;
  double wall_ms = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
};

SocketPointResult RunSocketPoint(const std::string& host, uint16_t port,
                                 unsigned conns, unsigned pipeline,
                                 uint64_t per_conn, const Workload& mix) {
  SocketPointResult res;
  std::mutex agg_mu;
  std::vector<double> lat_us;
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> completed{0};
  esd::util::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      esd::net::BlockingClient client;
      std::string err;
      if (!client.Connect(host, port, &err)) {
        errors.fetch_add(1);
        return;
      }
      esd::util::Rng rng(0x50C4E7 + c);
      std::vector<double> local;
      local.reserve(per_conn);
      // The server answers each connection in submission order, so the
      // send-time queue fronts pair with responses as they arrive; the
      // echoed cid double-checks that ordering contract on every reply.
      std::deque<std::pair<uint64_t, uint64_t>> inflight;  // cid, send_ns
      uint64_t next_cid = 1;
      uint64_t sent = 0;
      uint64_t done = 0;
      while (done < per_conn) {
        while (sent < per_conn && inflight.size() < pipeline) {
          const QueryRequest rq = mix.Draw(rng);
          esd::net::QueryFrame q;
          q.cid = next_cid++;
          q.k = rq.k;
          q.tau = rq.tau;
          q.pad_with_zero_edges = 1;
          const uint64_t t0 = esd::obs::MonotonicNanos();
          if (!client.SendQuery(q)) {
            errors.fetch_add(1);
            goto conn_done;
          }
          inflight.emplace_back(q.cid, t0);
          ++sent;
        }
        {
          esd::net::Frame frame;
          esd::net::QueryResultFrame result;
          if (client.RecvFrame(&frame) != esd::net::WireStatus::kOk ||
              frame.type != esd::net::FrameType::kQueryResult ||
              esd::net::DecodeQueryResult(frame.payload, &result) !=
                  esd::net::WireStatus::kOk ||
              inflight.empty() || result.cid != inflight.front().first) {
            errors.fetch_add(1);
            goto conn_done;
          }
          const uint64_t t1 = esd::obs::MonotonicNanos();
          local.push_back(static_cast<double>(t1 - inflight.front().second) *
                          1e-3);
          inflight.pop_front();
          ++done;
        }
      }
    conn_done:
      completed.fetch_add(done);
      std::lock_guard<std::mutex> lock(agg_mu);
      lat_us.insert(lat_us.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();
  res.wall_ms = wall_s * 1e3;
  res.completed = completed.load();
  res.errors = errors.load();
  res.qps = wall_s > 0 ? static_cast<double>(res.completed) / wall_s : 0.0;
  res.p50_us = Percentile(&lat_us, 0.50);
  res.p95_us = Percentile(&lat_us, 0.95);
  res.p99_us = Percentile(&lat_us, 0.99);
  return res;
}

int RunSocketMode(const std::string& host, uint16_t port) {
  const double scale = esd::bench::BenchScale();
  const Workload mix;
  std::printf("socket client mode: target %s:%u\n", host.c_str(), port);
  std::printf("%-16s %6s %9s %10s %10s %10s %10s %7s\n", "op", "conns",
              "pipeline", "qps", "p50(us)", "p95(us)", "p99(us)", "errors");
  uint64_t total_errors = 0;
  for (const unsigned conns : {1u, 4u, 16u, 64u}) {
    for (const unsigned pipeline : {1u, 8u}) {
      const uint64_t per_conn = std::max<uint64_t>(
          32, static_cast<uint64_t>(8000 * scale) / conns);
      const SocketPointResult r =
          RunSocketPoint(host, port, conns, pipeline, per_conn, mix);
      total_errors += r.errors;
      char op[40];
      std::snprintf(op, sizeof(op), "socket-c%u-p%u", conns, pipeline);
      std::printf("%-16s %6u %9u %10.0f %10.1f %10.1f %10.1f %7llu\n", op,
                  conns, pipeline, r.qps, r.p50_us, r.p95_us, r.p99_us,
                  static_cast<unsigned long long>(r.errors));
      char line[512];
      std::snprintf(
          line, sizeof(line),
          "{\"bench\":\"serve_load\",\"engine\":\"socket\",\"scorer\":\"%s\","
          "\"dataset\":\"remote\",\"op\":\"%s\",\"wall_ms\":%.6f,"
          "\"qps\":%.1f,\"conns\":%u,\"pipeline\":%u,\"requests\":%llu,"
          "\"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f,\"errors\":%llu}",
          std::string(g_scorer->Name()).c_str(), op, r.wall_ms, r.qps, conns,
          pipeline, static_cast<unsigned long long>(r.completed), r.p50_us,
          r.p95_us, r.p99_us, static_cast<unsigned long long>(r.errors));
      esd::bench::EmitJsonLine(line);
    }
  }
  if (total_errors > 0) {
    std::fprintf(stderr,
                 "socket mode: %llu errors (parse failures, transport "
                 "errors, or out-of-order cids)\n",
                 static_cast<unsigned long long>(total_errors));
    return 1;
  }
  if (!esd::bench::WriteBenchArtifact("serve_load")) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esd;

  // --socket <host:port>: act as a network load client against a running
  // esd_server --listen instead of standing up an in-process service.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--socket" && i + 1 < argc) {
      const std::string target = argv[i + 1];
      const size_t colon = target.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "usage: serve_load --socket <host:port>\n");
        return 2;
      }
      const std::string host = target.substr(0, colon);
      const int port = std::atoi(target.c_str() + colon + 1);
      if (port <= 0 || port > 65535) {
        std::fprintf(stderr, "bad port in --socket %s\n", target.c_str());
        return 2;
      }
      return RunSocketMode(host, static_cast<uint16_t>(port));
    }
  }

  // Span collection costs real per-request work at these request rates
  // (each served request emits its stage spans into the trace ring).
  // Collect only when a trace sink is armed, so the throughput numbers
  // reflect the always-on telemetry: stage histograms + slow log.
  if (std::getenv("ESD_TRACE_OUT") == nullptr) {
    obs::Tracer::Global().SetEnabled(false);
  }

  if (const char* env = std::getenv("ESD_SCORER")) {
    const core::DiversityScorer* s = core::FindScorer(env);
    if (s == nullptr) {
      std::fprintf(stderr, "unknown ESD_SCORER '%s'\n", env);
      return 2;
    }
    g_scorer = s;
  }

  const gen::Dataset d = bench::Load("pokec-s");
  std::printf("dataset %s: n=%u m=%u (scorer %s)\n", d.name.c_str(),
              d.graph.NumVertices(), d.graph.NumEdges(),
              std::string(g_scorer->Name()).c_str());
  util::Timer build;
  const FrozenEsdIndex frozen = core::BuildFrozenIndex(d.graph, *g_scorer);
  std::printf("frozen index build: %.1f ms, %.2f MiB\n\n",
              build.ElapsedMillis(),
              static_cast<double>(frozen.MemoryBytes()) / (1024.0 * 1024.0));

  const Workload mix;
  const double scale = bench::BenchScale();
  const uint64_t closed_total = static_cast<uint64_t>(20000 * scale);
  const unsigned hw = util::ThreadPool::DefaultThreadCount();

  PrintHeader();
  std::vector<unsigned> worker_sweep{1, 2, 4};
  if (hw > 4) worker_sweep.push_back(hw);
  double single_thread_qps = 0;
  double best_multi_qps = 0;
  for (unsigned workers : worker_sweep) {
    const unsigned clients = std::max(2u, 2 * workers);
    MetricsSnapshot snap;
    double wall_ms = 0;
    RequestCosts costs;
    const double qps = RunClosedLoop(frozen, mix, workers, clients,
                                     closed_total, &snap, &wall_ms, &costs);
    if (workers == 1) single_thread_qps = qps;
    if (workers > 1) best_multi_qps = std::max(best_multi_qps, qps);
    char op[32];
    std::snprintf(op, sizeof(op), "closed-w%u", workers);
    PrintRow("closed", workers, clients, qps, snap);
    EmitServeJson(d.name, op, wall_ms, frozen.MemoryBytes(), snap, qps,
                  workers, clients, closed_total, &costs);
  }

  // Open loop at ~60% of the measured closed-loop capacity, with a
  // deadline at ~20x the closed-loop p95 (so only true stalls shed).
  {
    const double rate = std::max(1000.0, 0.6 * single_thread_qps);
    const uint64_t open_total = static_cast<uint64_t>(5000 * scale);
    MetricsSnapshot snap;
    double wall_ms = 0;
    const double qps = RunOpenLoop(frozen, mix, hw, rate, open_total,
                                   /*deadline_us=*/100000, &snap, &wall_ms);
    PrintRow("open", hw, 1, qps, snap);
    EmitServeJson(d.name, "open-loop", wall_ms, frozen.MemoryBytes(), snap,
                  qps, hw, 1, open_total);
  }

  // Live mixed: readers against a hot-swapping LiveEsdIndex while a
  // background writer streams WAL-durable updates.
  {
    double write_rate = 2000.0;
    if (const char* env = std::getenv("ESD_WRITE_RATE")) {
      const double v = std::atof(env);
      if (v > 0) write_rate = v;
    }
    const uint64_t live_reads = static_cast<uint64_t>(10000 * scale);
    const unsigned workers = std::max(2u, hw / 2);
    const unsigned clients = 2 * workers;
    LiveMixedResult live;
    if (RunLiveMixed(d.graph, mix, workers, clients, live_reads, write_rate,
                     &live)) {
      PrintRow("live-mixed", workers, clients, live.qps, live.snap);
      std::printf(
          "  writer: %llu updates @ %.0f/s (target %.0f/s), epochs %llu, "
          "staleness lag mean/max %.1f/%llu updates, epoch age max %.3f s\n",
          static_cast<unsigned long long>(live.updates_applied),
          live.write_rate_achieved, write_rate,
          static_cast<unsigned long long>(live.epochs), live.lag_mean,
          static_cast<unsigned long long>(live.lag_max), live.age_max_s);
      char head[256], tail[256];
      std::snprintf(
          head, sizeof(head),
          "{\"bench\":\"serve_load\",\"engine\":\"live\",\"scorer\":\"%s\","
          "\"dataset\":\"%s\","
          "\"op\":\"live-mixed\",\"wall_ms\":%.6f,\"qps\":%.1f,",
          std::string(g_scorer->Name()).c_str(), d.name.c_str(),
          live.wall_ms, live.qps);
      std::snprintf(
          tail, sizeof(tail),
          ",\"write_rate\":%.1f,\"updates\":%llu,\"epochs\":%llu,"
          "\"lag_mean\":%.2f,\"lag_max\":%llu,\"age_max_s\":%.4f}",
          live.write_rate_achieved,
          static_cast<unsigned long long>(live.updates_applied),
          static_cast<unsigned long long>(live.epochs), live.lag_mean,
          static_cast<unsigned long long>(live.lag_max), live.age_max_s);
      bench::EmitJsonLine(
          std::string(head) +
          ConfigJsonFields(workers, clients, live_reads) + "," +
          serve::MetricsJsonFields(live.snap) + "," +
          serve::StageJsonFields(live.snap) + tail);
    } else {
      std::fprintf(stderr, "live-mixed mode failed\n");
      return 1;
    }
  }

  // Skew sweep: a capacity-limited result cache under growing traffic
  // concentration. Wider (tau, k) ladders than the main mix so the uniform
  // end genuinely thrashes the 16-entry cache, while Zipf s=1.5 parks its
  // mass on a handful of hot combinations; the final row repeats the most
  // skewed point with the cache off — the miss-path cost every hit elides.
  {
    // Deep-scan mix, popularity-ordered so the HOT combinations are the
    // expensive ones: high tau leaves a near-empty slab, and the deep k
    // then falls into the O(m) zero-padding edge scan — the regime a
    // result cache exists for ("export the full diversity ranking"
    // dashboards, not point lookups). A miss costs an edge scan; a hit is
    // one result copy.
    const std::vector<uint32_t> skew_taus{32, 24, 16, 12, 8, 6, 4, 3, 2, 1};
    const std::vector<uint32_t> skew_ks{5000, 2000, 1000, 500, 200, 100};
    const uint64_t sweep_total = static_cast<uint64_t>(20000 * scale);
    const unsigned workers = 2;  // execution-bound: cache wins show in qps
    const unsigned clients = 4;
    constexpr size_t kCacheBytes = 4u << 20;
    constexpr size_t kCacheEntries = 16;
    std::printf(
        "\nskew sweep: %zu-entry result cache, %zux%zu (tau,k) ladder\n",
        kCacheEntries, skew_taus.size(), skew_ks.size());
    std::printf("%-20s %8s %10s %10s %10s %9s %10s\n", "op", "zipf_s", "qps",
                "p99(us)", "hits", "hit_rate", "inline");
    double cached_qps = 0;
    double uncached_qps = 0;
    struct SkewCfg {
      double s;
      bool cache;
    };
    for (const SkewCfg cfg : {SkewCfg{0.0, true}, SkewCfg{0.75, true},
                              SkewCfg{1.5, true}, SkewCfg{1.5, false}}) {
      const Workload skew(skew_taus, skew_ks, cfg.s);
      MetricsSnapshot snap;
      double wall_ms = 0;
      serve::ResultCache::Stats cstats;
      RequestCosts costs;
      const double qps = RunClosedLoop(
          frozen, skew, workers, clients, sweep_total, &snap, &wall_ms,
          &costs, cfg.cache ? kCacheBytes : 0, kCacheEntries, &cstats);
      if (cfg.cache && cfg.s == 1.5) cached_qps = qps;
      if (!cfg.cache) uncached_qps = qps;
      char op[40];
      std::snprintf(op, sizeof(op), "skew-s%.2f-%s", cfg.s,
                    cfg.cache ? "cache" : "nocache");
      std::printf("%-20s %8.2f %10.0f %10.1f %10llu %8.1f%% %10llu\n", op,
                  cfg.s, qps, snap.total.p99_us,
                  static_cast<unsigned long long>(cstats.hits),
                  100.0 * cstats.hit_rate,
                  static_cast<unsigned long long>(snap.inline_hits));
      char head[256], tail[256];
      std::snprintf(
          head, sizeof(head),
          "{\"bench\":\"serve_load\",\"engine\":\"frozen\",\"scorer\":\"%s\","
          "\"dataset\":\"%s\",\"op\":\"%s\",\"wall_ms\":%.6f,"
          "\"qps\":%.1f,",
          std::string(g_scorer->Name()).c_str(), d.name.c_str(), op, wall_ms,
          qps);
      std::snprintf(tail, sizeof(tail),
                    ",\"zipf_s\":%.2f,\"cache\":%s,"
                    "\"cache_hits\":%llu,\"cache_misses\":%llu,"
                    "\"cache_evictions\":%llu,\"cache_hit_rate\":%.4f}",
                    cfg.s, cfg.cache ? "true" : "false",
                    static_cast<unsigned long long>(cstats.hits),
                    static_cast<unsigned long long>(cstats.misses),
                    static_cast<unsigned long long>(cstats.evictions),
                    cstats.hit_rate);
      bench::EmitJsonLine(std::string(head) +
                          ConfigJsonFields(workers, clients, sweep_total) +
                          CostJsonFields(costs) + "," +
                          serve::MetricsJsonFields(snap) + "," +
                          serve::StageJsonFields(snap) + tail);
    }
    std::printf("  cache speedup at s=1.5: %.2fx (on %.0f qps / off %.0f "
                "qps)\n",
                uncached_qps > 0 ? cached_qps / uncached_qps : 0.0,
                cached_qps, uncached_qps);
  }

  std::printf(
      "\nmulti-thread (best %.0f qps) vs single-thread (%.0f qps): %.2fx\n"
      "Reading: queue wait dominates execute at saturation; tau-batching\n"
      "amortizes the slab binary search across same-tau requests (see\n"
      "slab_searches_saved in the JSON lines).\n",
      best_multi_qps, single_thread_qps,
      single_thread_qps > 0 ? best_multi_qps / single_thread_qps : 0.0);
  bench::MaybeWriteTrace("serve_load");
  if (!bench::WriteBenchArtifact("serve_load")) return 1;
  return 0;
}
