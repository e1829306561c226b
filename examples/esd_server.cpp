// Demo of the serving layer: build (or load) a read-optimized
// FrozenEsdIndex, stand up an EsdQueryService on top of it, fire a burst
// of synthetic client traffic at the service from several threads, and
// print the observability snapshot — throughput, p50/p95/p99 end-to-end
// latency, queue-wait vs execute tails, admission rejects and deadline
// misses.
//
// After the burst the server reads commands from stdin until EOF/QUIT:
//   QUERY <k> <tau> [STRICT]  run one query through the service, print the
//                     edges (STRICT: fail typed instead of answering
//                     partially when any shard is down)
//   INSERT <u> <v>    (live mode) durably insert an edge
//   DELETE <u> <v>    (live mode) durably delete an edge
//   CHECKPOINT        (live mode) persist a snapshot + compact the WAL
//   STATS             one-line service metrics snapshot (+ live stats and
//                     the health=ok|degraded|read-only field)
//   METRICS           Prometheus text exposition of the global registry,
//                     terminated by a "# EOF" line
//   SLOWLOG [n]       the n (default: all retained) worst requests of the
//                     trailing window as JSON lines, worst first, each with
//                     its full per-stage attribution, tau/k, scorer, epoch,
//                     cache outcome, and health at admission
//   HISTORY [n]       the newest n (default 10) metric time-series
//                     intervals as JSON lines (qps, cache hit-rate, rates
//                     of every changed counter, changed gauges)
//   HISTORY PROM      the latest interval's rates as recording-rule-style
//                     Prometheus gauges, terminated by "# EOF"
//   FAILPOINT <name> <spec>   arm a fail point at runtime (spec syntax as
//                     in $ESD_FAILPOINTS, e.g. "error(ENOSPC)" or "off");
//                     FAILPOINT LIST enumerates every compiled-in site with
//                     live hit/fire counts; FAILPOINT clearall disarms all
//   REFREEZE          (live mode) synchronously publish a fresh epoch
//   SHARDS            (--shards) fleet tally and epoch, then per-shard
//                     state, queries, drained entries and stall trips
//   TRACE <path>      write collected spans as Chrome trace JSON
//   QUIT              shut down
// (With stdin at EOF — e.g. the smoke test — the loop exits immediately,
// unless --listen is active: then the server keeps serving the socket until
// SIGINT/SIGTERM or a stdin QUIT triggers the graceful drain.)
//
// The command executor, startup wiring and listener live in src/app/
// (esd_app: ServerApp and its command table); this file keeps the flags,
// the burst demo and main.
//
// With --listen PORT (0 = ephemeral; the bound port is printed on the
// "listening on" line) the same command set is served over TCP by the
// src/net/ event loop: text mode is line-compatible with stdin (nc works),
// binary-framed clients (net/client.h) get the length-prefixed protocol,
// and `GET /metrics` on the same port answers a Prometheus scrape.
//
// With --live-dir the server runs on a LiveEsdIndex: updates are logged to
// <dir>/wal.bin, folded into the writer index, and published to readers as
// immutable epochs; on startup the server recovers from <dir>/snapshot.bin
// plus the WAL suffix (surviving SIGKILL mid-stream).
//
// Usage:
//   esd_server --dataset pokec-s [--scale 0.2] [--threads 4] [--clients 8]
//              [--requests 5000] [--max-queue 1024] [--deadline-us 0]
//              [--engine frozen] [--scorer esd|truss|egobw]
//              [--live-dir <dir>] [--refreeze-every N (default 64)]
//              [--slowlog N] [--history-interval-ms M] [--history-samples S]
//   esd_server --file <edge_list> [--load-index <path>] ...
//
// Numeric flags are parsed strictly: a value with a sign, trailing junk,
// or out of the field's range (e.g. --listen 70000) prints usage and exits
// 2.
//
// --scorer serves a different diversity definition on the same stack: the
// WAL, snapshot, and index files are stamped with the scorer id, so a
// --live-dir or --load-index written under another scorer is refused.
//
// Examples:
//   build/examples/esd_server --dataset pokec-s --requests 2000
//   build/examples/esd_server --dataset dblp-s --live-dir /tmp/esd_live

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "app/server_app.h"
#include "esd_version.h"
#include "serve/metrics.h"
#include "serve/query_service.h"
#include "util/flag_parse.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

[[noreturn]] void UsageExit() {
  std::fprintf(stderr,
               "esd_server %s\n"
               "usage: esd_server (--file <edge_list> | --dataset <name>)\n"
               "                  [--scale S] [--engine E] [--threads N]\n"
               "                  [--scorer esd|truss|egobw]\n"
               "                  [--clients C] [--requests R]\n"
               "                  [--max-queue Q] [--deadline-us D]\n"
               "                  [--load-index P] [--cache-bytes B]\n"
               "                  [--live-dir DIR]\n"
               "                  [--refreeze-every N (default %llu)]\n"
               "                  [--shards N]\n"
               "                  [--slowlog N] [--history-interval-ms M]\n"
               "                  [--history-samples S]\n"
               "                  [--listen PORT] [--bind ADDR]\n"
               "                  [--force-poll] [--drain-timeout-ms D]\n",
               esd::kVersionString,
               static_cast<unsigned long long>(
                   esd::app::ServerConfig{}.refreeze_every));
  std::exit(2);
}

/// Setter for one valued flag (util::ParseFlagValue: strict unsigned
/// decimals, a positive finite --scale); a bad value is a usage error.
template <typename T>
std::function<void(const char*)> Into(T* field) {
  return [field](const char* text) {
    if (!esd::util::ParseFlagValue(text, field)) UsageExit();
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esd;

  app::ServerConfig cfg;
  unsigned clients = 4;
  uint64_t requests = 5000;
  const std::map<std::string_view, std::function<void(const char*)>> flags = {
      {"--file", Into(&cfg.file)},
      {"--dataset", Into(&cfg.dataset)},
      {"--scale", Into(&cfg.scale)},
      {"--engine", Into(&cfg.engine)},
      {"--scorer", Into(&cfg.scorer)},
      {"--threads", Into(&cfg.threads)},
      {"--clients", Into(&clients)},
      {"--requests", Into(&requests)},
      {"--max-queue", Into(&cfg.max_queue)},
      {"--deadline-us", Into(&cfg.deadline_us)},
      {"--load-index", Into(&cfg.load_index)},
      {"--live-dir", Into(&cfg.live_dir)},
      {"--refreeze-every", Into(&cfg.refreeze_every)},
      {"--shards", Into(&cfg.shards)},
      {"--cache-bytes", Into(&cfg.cache_bytes)},
      {"--slowlog", Into(&cfg.slowlog_capacity)},
      {"--history-interval-ms", Into(&cfg.history_interval_ms)},
      {"--history-samples", Into(&cfg.history_samples)},
      {"--listen", Into(&cfg.port)},
      {"--bind", Into(&cfg.bind_address)},
      {"--drain-timeout-ms", Into(&cfg.drain_timeout_ms)},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--force-poll") {
      cfg.force_poll = true;
      continue;
    }
    const auto flag = flags.find(arg);
    if (flag == flags.end() || i + 1 >= argc) UsageExit();
    flag->second(argv[++i]);
    cfg.listen = cfg.listen || arg == "--listen";
  }
  if (cfg.file.empty() == cfg.dataset.empty()) UsageExit();
  if (clients == 0) clients = 1;

  int exit_code = 0;
  const std::unique_ptr<app::ServerApp> server =
      app::ServerApp::Open(cfg, &exit_code);
  if (server == nullptr) return exit_code;
  serve::EsdQueryService& service = server->service();

  // Burst: `clients` threads each fire their share of the requests, mixing
  // taus and ks, then report one sample response apiece.
  const uint64_t per_client = (requests + clients - 1) / clients;
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  std::vector<serve::QueryResponse> samples(clients);
  util::Timer wall;
  for (unsigned c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      util::Rng rng(0xC0FFEE + c);
      serve::QueryResponse last;
      for (uint64_t r = 0; r < per_client; ++r) {
        serve::QueryRequest rq;
        rq.k = 1 + static_cast<uint32_t>(rng.NextBounded(50));
        rq.tau = 1 + static_cast<uint32_t>(rng.NextBounded(8));
        rq.deadline_us = cfg.deadline_us;
        last = service.Query(rq);
      }
      samples[c] = last;
    });
  }
  for (std::thread& t : client_threads) t.join();
  const double wall_s = wall.ElapsedSeconds();

  const uint64_t sent = per_client * clients;
  std::printf("%llu requests in %.1f ms -> %.0f qps\n",
              static_cast<unsigned long long>(sent), wall_s * 1e3,
              static_cast<double>(sent) / wall_s);
  for (unsigned c = 0; c < clients; ++c) {
    const serve::QueryResponse& s = samples[c];
    std::printf("client %u last response: %s, %zu edges, queue %.1f us, "
                "exec %.1f us\n",
                c, serve::ResponseStatusName(s.status), s.result.size(),
                s.queue_us, s.exec_us);
  }

  const serve::MetricsSnapshot snap = service.metrics().Snap();
  std::printf("\nservice metrics:\n");
  std::printf("  accepted/completed:   %llu / %llu\n",
              static_cast<unsigned long long>(snap.accepted),
              static_cast<unsigned long long>(snap.completed));
  std::printf("  rejected (queue full): %llu\n",
              static_cast<unsigned long long>(snap.rejected));
  std::printf("  deadline missed:      %llu\n",
              static_cast<unsigned long long>(snap.deadline_missed));
  std::printf("  batches (saved slab searches): %llu (%llu)\n",
              static_cast<unsigned long long>(snap.batches),
              static_cast<unsigned long long>(snap.slab_searches_saved));
  std::printf("  latency p50/p95/p99:  %.1f / %.1f / %.1f us\n",
              snap.total.p50_us, snap.total.p95_us, snap.total.p99_us);
  std::printf("  queue-wait p95:       %.1f us\n", snap.queue_wait.p95_us);
  std::printf("  execute p95:          %.1f us\n", snap.execute.p95_us);
  std::printf("{\"bench\":\"esd_server\",\"engine\":\"%s\",\"scorer\":\"%s\","
              "\"dataset\":\"%s\","
              "\"op\":\"burst\",\"wall_ms\":%.6f,\"bytes\":%llu,%s}\n",
              server->EngineName().c_str(), cfg.scorer.c_str(),
              (cfg.dataset.empty() ? cfg.file : cfg.dataset).c_str(),
              wall_s * 1e3,
              static_cast<unsigned long long>(server->MemoryBytes()),
              serve::MetricsJsonFields(snap).c_str());

  return server->Serve(std::cin);
}
