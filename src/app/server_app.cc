#include "app/server_app.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <mutex>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/frozen_index.h"
#include "core/index_io.h"
#include "core/query_engine.h"
#include "core/scorer.h"
#include "fault/failpoint.h"
#include "gen/datasets.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "live/live_index.h"
#include "live/wal.h"
#include "net/server.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace esd::app {

namespace {

using ull = unsigned long long;
using Args = std::istringstream;

/// printf into a growing string: replies are built as strings so one
/// executor serves both stdin and socket clients.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void AppendF(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const size_t old = out->size();
    out->resize(old + static_cast<size_t>(n) + 1);
    std::vsnprintf(out->data() + old, static_cast<size_t>(n) + 1, fmt, ap2);
    out->resize(old + static_cast<size_t>(n));
  }
  va_end(ap2);
}

obs::MetricRegistry& Registry() { return obs::MetricRegistry::Global(); }

/// The active listener, for the SIGINT/SIGTERM handler. RequestShutdown is
/// one atomic store plus one pipe write — async-signal-safe — and Serve()
/// does the actual drain after Join() returns.
std::atomic<net::NetServer*> g_net_server{nullptr};

void HandleShutdownSignal(int) {
  net::NetServer* server = g_net_server.load();
  if (server != nullptr) server->RequestShutdown();
}

/// The admin seam: everything the commands and startup do differently in
/// static and live serving. The command table calls only this, so no
/// handler asks which mode is running. Reply methods append one complete
/// reply; the caller serializes calls. The base class is static serving:
/// one immutable engine, built at startup or loaded from an index file,
/// and its replies are those of a mode that cannot write.
class ServingAdmin {
 public:
  ServingAdmin(std::string name, serve::EpochEngineProvider provider)
      : name_(std::move(name)), provider_(std::move(provider)) {}
  virtual ~ServingAdmin() = default;

  /// What the query service serves from.
  const serve::EpochEngineProvider& Provider() const { return provider_; }
  const std::string& EngineName() const { return name_; }
  /// Bytes of the image being served.
  uint64_t MemoryBytes() const { return provider_().engine->MemoryBytes(); }
  /// Pushes this mode's pull-style metrics (live lag) into the global
  /// registry.
  virtual void ExportMetrics() {}
  /// Upstream health folded into the query service's Health().
  virtual obs::HealthState Health() const { return obs::HealthState::kOk; }
  /// Routes epoch publishes into `service`'s result cache; null detaches,
  /// which must happen before the service dies.
  virtual void AttachService(serve::EsdQueryService* /*service*/) {}

  /// Whether INSERT/DELETE reach Apply (checked before their arguments).
  virtual bool Writable() const { return false; }
  virtual void Apply(const live::LiveUpdate&, std::string*) {}
  virtual void Checkpoint(std::string* out) {
    AppendF(out, "ERR checkpoint needs --live-dir\n");
  }
  virtual void Refreeze(std::string* out) {
    AppendF(out, "ERR refreeze needs --live-dir\n");
  }
  /// Mode-specific STATS fields, appended after the service's own.
  virtual void AppendStats(std::string* /*out*/) {}

 private:
  const std::string name_;
  const serve::EpochEngineProvider provider_;
};

/// A LiveEsdIndex: WAL-durable updates, served as immutable epochs. The
/// provider reads the index, and as a base member it is destroyed after
/// it; it does not touch the index on destruction.
class LiveAdmin final : public ServingAdmin {
 public:
  explicit LiveAdmin(std::unique_ptr<live::LiveEsdIndex> live)
      : ServingAdmin("live",
                     serve::SnapshotProvider([index = live.get()] {
                       return index->CurrentSnapshot();
                     })),
        live_(std::move(live)) {}

  void ExportMetrics() override { live_->ExportMetrics(); }
  obs::HealthState Health() const override { return live_->Health(); }
  void AttachService(serve::EsdQueryService* service) override {
    if (service == nullptr) {
      live_->SetEpochListener({});
      return;
    }
    // Rotate the cache generation the moment an epoch publishes rather
    // than lazily on the first post-swap lookup.
    service->NotifyEpoch(live_->CurrentSnapshot()->epoch);
    live_->SetEpochListener(
        [service](uint64_t epoch, uint64_t) { service->NotifyEpoch(epoch); });
  }

  bool Writable() const override { return true; }
  void Apply(const live::LiveUpdate& update, std::string* out) override {
    const live::ApplyResult result = live_->ApplyTyped(update);
    if (result.status == live::ApplyStatus::kOk && result.processed == 1) {
      AppendWatermark(out);
    } else {
      // Typed rejection: scripts match on the status token (wal-error,
      // degraded, bounds) without parsing the prose.
      AppendF(out, "ERR %s %s\n", live::ApplyStatusName(result.status),
              result.message.c_str());
    }
  }
  void Checkpoint(std::string* out) override {
    std::string error;
    if (live_->Checkpoint(&error)) {
      AppendWatermark(out);
    } else {
      AppendF(out, "ERR %s\n", error.c_str());
    }
  }
  void Refreeze(std::string* out) override {
    AppendF(out, live_->RefreezeNow() ? "OK refrozen\n"
                                      : "ERR refreeze failed\n");
  }
  void AppendStats(std::string* out) override {
    const live::LiveStats ls = live_->Stats();
    AppendF(out,
            " live_seq=%llu live_epoch=%llu live_lag=%llu "
            "live_age_s=%.3f wal_bytes=%llu checkpoints=%llu "
            "wal_retries=%llu wal_failures=%llu "
            "degraded_rejections=%llu heals=%llu breaker_open=%d",
            static_cast<ull>(ls.applied_seq),
            static_cast<ull>(ls.snapshot_epoch),
            static_cast<ull>(ls.snapshot_lag), ls.snapshot_age_s,
            static_cast<ull>(ls.wal_bytes), static_cast<ull>(ls.checkpoints),
            static_cast<ull>(ls.wal_retries),
            static_cast<ull>(ls.wal_append_failures),
            static_cast<ull>(ls.degraded_rejections),
            static_cast<ull>(ls.heals), ls.breaker_open ? 1 : 0);
  }

 private:
  void AppendWatermark(std::string* out) const {
    const live::LiveStats s = live_->Stats();
    AppendF(out, "OK seq=%llu wal_bytes=%llu epoch=%llu\n",
            static_cast<ull>(s.applied_seq), static_cast<ull>(s.wal_bytes),
            static_cast<ull>(s.snapshot_epoch));
  }

  const std::unique_ptr<live::LiveEsdIndex> live_;
};

/// The layout live dirs had while every shard ran its own writer: one WAL
/// per shard under <dir>/shard-<i>/ and none at the top. Opening one WAL
/// over it would bootstrap from the dataset and drop every write those
/// shard logs acknowledged, so it is refused instead.
bool HoldsRetiredShardLayout(const std::filesystem::path& dir) {
  std::error_code ec;
  if (std::filesystem::exists(dir / "wal.bin", ec)) return false;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_directory(ec) &&
        entry.path().filename().string().rfind("shard-", 0) == 0) {
      return true;
    }
  }
  return false;
}

/// Opens the serving mode `config` selects over `g` (which must outlive
/// the result) and prints its startup line. Null with *error and
/// *exit_code set on failure.
std::unique_ptr<ServingAdmin> OpenAdmin(const ServerConfig& config,
                                        const graph::Graph& g,
                                        const core::DiversityScorer& scorer,
                                        std::string* error, int* exit_code) {
  util::Timer timer;
  *exit_code = 1;
  if (!config.live_dir.empty()) {
    const std::filesystem::path dir(config.live_dir);
    if (HoldsRetiredShardLayout(dir)) {
      *error = config.live_dir +
               " holds the retired per-shard layout (shard-<i>/wal.log, "
               "one WAL per shard); this server keeps one wal.bin per live "
               "dir and will not bootstrap over it";
      return nullptr;
    }
    std::filesystem::create_directories(dir);
    live::LiveOptions live_options;
    live_options.wal_path = (dir / "wal.bin").string();
    live_options.snapshot_path = (dir / "snapshot.bin").string();
    live_options.refreeze_every = config.refreeze_every;
    live_options.scorer = scorer.Kind();
    live_options.registry = &Registry();
    std::unique_ptr<live::LiveEsdIndex> live =
        live::LiveEsdIndex::Open(g, live_options, error);
    if (live == nullptr) return nullptr;
    const live::RecoveredState& rec = live->recovery();
    std::printf(
        "live index up: %.1f ms (snapshot %s, replayed %llu wal records, "
        "wal tail %s, applied_seq %llu)\n",
        timer.ElapsedMillis(), rec.snapshot_loaded ? "loaded" : "absent",
        static_cast<ull>(rec.replay_applied),
        live::WalTailStatusName(rec.wal.tail),
        static_cast<ull>(live->Stats().applied_seq));
    return std::make_unique<LiveAdmin>(std::move(live));
  }
  std::shared_ptr<const core::EsdQueryEngine> engine;
  if (!config.load_index.empty()) {
    auto index = std::make_shared<core::FrozenEsdIndex>();
    const core::IndexIoResult res =
        core::LoadFrozenIndex(config.load_index, index.get(), scorer.Kind());
    if (!res) {
      *error = res.message;
      return nullptr;
    }
    std::printf("frozen engine loaded from %s: %.1f ms\n",
                config.load_index.c_str(), timer.ElapsedMillis());
    engine = std::move(index);
  } else {
    engine = core::BuildQueryEngine(g, config.engine, scorer, error);
    if (engine == nullptr) {
      *exit_code = 2;
      return nullptr;
    }
    std::printf("%s engine build (%s scorer): %.1f ms\n",
                config.engine.c_str(), std::string(scorer.Name()).c_str(),
                timer.ElapsedMillis());
  }
  return std::make_unique<ServingAdmin>(
      config.engine,
      [engine = std::move(engine)] { return serve::PinnedEngine{engine, 0}; });
}

}  // namespace

/// Declared in dependency order; the destructor tears down in the order
/// ~ServerApp documents.
struct ServerState {
  explicit ServerState(const ServerConfig& c) : config(c) {}
  ~ServerState() {
    // No socket command can race the teardown below once the loop is down.
    net.reset();
    if (admin != nullptr) admin->AttachService(nullptr);
    // The sampler's pre-sample hook reads the admin and the service.
    history.reset();
    if (service != nullptr) service->Stop();
  }

  const ServerConfig config;
  const core::DiversityScorer* scorer = nullptr;
  graph::Graph graph;  ///< before admin: online engines borrow it
  std::unique_ptr<ServingAdmin> admin;
  std::unique_ptr<serve::EsdQueryService> service;
  std::unique_ptr<obs::MetricHistory> history;
  std::unique_ptr<net::NetServer> net;
  /// Serializes commands across the stdin and socket front ends.
  std::mutex command_mu;
};

namespace {

std::string MetricsTextLocked(ServerState& s) {
  s.admin->ExportMetrics();
  // A scrape also reports the work counters of the image being served.
  core::ExportEngineCounters(*s.admin->Provider()().engine, &Registry());
  // The combined (service + live) health beats the live-only view
  // ExportMetrics just wrote.
  obs::ExportHealth(Registry(), s.service->Health());
  return Registry().PrometheusText() + "# EOF\n";
}

void Query(ServerState& s, Args& args, std::string* out) {
  serve::QueryRequest rq;
  std::string rest;
  std::getline(args, rest);
  if (!net::ParseQueryArgs(rest, &rq)) {
    *out += net::kQueryUsage;
    return;
  }
  rq.deadline_us = s.config.deadline_us;
  *out += ServerApp::FormatQuery(s.service->Query(rq));
}

void Update(ServerState& s, live::UpdateKind kind, const char* verb,
            Args& args, std::string* out) {
  if (!s.admin->Writable()) {
    AppendF(out, "ERR updates need --live-dir\n");
    return;
  }
  live::LiveUpdate update;
  update.kind = kind;
  if (!(args >> update.u >> update.v)) {
    AppendF(out, "ERR usage: %s <u> <v>\n", verb);
    return;
  }
  s.admin->Apply(update, out);
}

void Stats(ServerState& s, Args&, std::string* out) {
  const serve::MetricsSnapshot m = s.service->metrics().Snap();
  AppendF(out,
          "OK accepted=%llu completed=%llu rejected=%llu "
          "deadline_missed=%llu batches=%llu inline_hits=%llu "
          "queue_depth=%llu p50_us=%.1f p95_us=%.1f p99_us=%.1f",
          static_cast<ull>(m.accepted), static_cast<ull>(m.completed),
          static_cast<ull>(m.rejected), static_cast<ull>(m.deadline_missed),
          static_cast<ull>(m.batches), static_cast<ull>(m.inline_hits),
          static_cast<ull>(m.queue_depth),
          m.total.p50_us, m.total.p95_us, m.total.p99_us);
  s.admin->AppendStats(out);
  if (const serve::ResultCache* cache = s.service->cache()) {
    const serve::ResultCache::Stats cs = cache->Snap();
    AppendF(out,
            " cache_hits=%llu cache_misses=%llu cache_hit_rate=%.3f "
            "cache_entries=%zu cache_bytes=%llu cache_epoch=%llu "
            "cache_evictions=%llu",
            static_cast<ull>(cs.hits), static_cast<ull>(cs.misses),
            cs.hit_rate, cs.entries, static_cast<ull>(cs.bytes),
            static_cast<ull>(cs.epoch), static_cast<ull>(cs.evictions));
  }
  if (s.net != nullptr) {
    const net::NetServer::Stats ns = s.net->SnapStats();
    AppendF(out,
            " net_accepts=%llu net_open=%llu net_inflight=%llu "
            "net_parse_errors=%llu net_backpressure_closes=%llu",
            static_cast<ull>(ns.accepts), static_cast<ull>(ns.open_connections),
            static_cast<ull>(ns.inflight), static_cast<ull>(ns.parse_errors),
            static_cast<ull>(ns.backpressure_closes));
  }
  AppendF(out, " scorer=%s health=%s\n", std::string(s.scorer->Name()).c_str(),
          obs::HealthStateName(s.service->Health()));
}

void SlowLog(ServerState& s, Args& args, std::string* out) {
  size_t n = 0;  // 0 = everything retained
  args >> n;
  const serve::SlowQueryLog& slowlog = s.service->slow_log();
  const std::vector<std::string> lines = slowlog.JsonLines(n);
  AppendF(out,
          "OK slowlog %zu entries (capacity %zu, window %llds, "
          "%llu requests considered)\n",
          lines.size(), slowlog.capacity(),
          static_cast<long long>(slowlog.window().count()),
          static_cast<ull>(slowlog.recorded()));
  for (const std::string& entry : lines) AppendF(out, "%s\n", entry.c_str());
}

void History(ServerState& s, Args& args, std::string* out) {
  std::string what;
  args >> what;
  // A scrape-time sample makes the command self-contained: even with the
  // background sampler off there are always >= 2 samples to diff.
  s.history->SampleNow();
  if (what == "PROM") {
    *out += s.history->RatesPrometheus();
    AppendF(out, "# EOF\n");
    return;
  }
  const size_t n =
      what.empty() ? 10 : static_cast<size_t>(std::atoll(what.c_str()));
  const std::vector<std::string> lines =
      s.history->IntervalsJson(n == 0 ? 10 : n);
  AppendF(out, "OK history %zu intervals (ring %zu/%zu, interval %llu ms)\n",
          lines.size(), s.history->NumSamples(), s.history->capacity(),
          static_cast<ull>(s.config.history_interval_ms));
  for (const std::string& interval : lines) {
    AppendF(out, "%s\n", interval.c_str());
  }
}

void FailPoint(ServerState&, Args& args, std::string* out) {
  std::string name, spec;
  args >> name >> spec;
  fault::FailPointRegistry& fpr = fault::FailPointRegistry::Global();
  if (name.empty()) {
    AppendF(out, "ERR usage: FAILPOINT <name> <spec> | FAILPOINT LIST | "
                 "FAILPOINT clearall\n");
  } else if (name == "LIST" || name == "list") {
    // Operator discovery: every compiled-in site with its live hit/fire
    // counters, then armed names outside the curated table (test-only
    // points).
    const std::vector<fault::FailPointSite> sites =
        fault::BuiltinFailPointSites();
    const std::vector<std::string> active = fpr.ActiveNames();
    AppendF(out, "OK %zu sites, %zu armed%s\n", sites.size(), active.size(),
            fault::kFailPointsCompiledIn
                ? ""
                : " (sites compiled out: ESD_FAULT=OFF)");
    for (const fault::FailPointSite& site : sites) {
      const std::string site_name(site.name);
      const bool is_armed =
          std::find(active.begin(), active.end(), site_name) != active.end();
      AppendF(out, "%s %s hits=%llu fires=%llu - %.*s\n",
              is_armed ? "armed " : "site  ", site_name.c_str(),
              static_cast<ull>(fpr.HitCount(site_name)),
              static_cast<ull>(fpr.FireCount(site_name)),
              static_cast<int>(site.description.size()),
              site.description.data());
    }
    for (const std::string& armed_name : active) {
      if (std::any_of(sites.begin(), sites.end(),
                      [&](const fault::FailPointSite& site) {
                        return site.name == armed_name;
                      })) {
        continue;
      }
      AppendF(out, "armed %s hits=%llu fires=%llu - (instance)\n",
              armed_name.c_str(), static_cast<ull>(fpr.HitCount(armed_name)),
              static_cast<ull>(fpr.FireCount(armed_name)));
    }
  } else if (name == "clearall") {
    fpr.ClearAll();
    AppendF(out, "OK fail points cleared\n");
  } else if (spec.empty()) {
    AppendF(out, "ERR usage: FAILPOINT <name> <spec>\n");
  } else if (std::string error; !fpr.Set(name, spec, &error)) {
    AppendF(out, "ERR %s\n", error.c_str());
  } else {
    AppendF(out, "OK %s=%s%s\n", name.c_str(), spec.c_str(),
            fault::kFailPointsCompiledIn
                ? ""
                : " (sites compiled out: ESD_FAULT=OFF, no effect)");
  }
}

void Trace(ServerState&, Args& args, std::string* out) {
  std::string path;
  if (!(args >> path)) {
    AppendF(out, "ERR usage: TRACE <path>\n");
    return;
  }
  std::string error;
  if (obs::Tracer::Global().WriteChromeTrace(path, &error)) {
    AppendF(out, "OK trace written to %s\n", path.c_str());
  } else {
    AppendF(out, "ERR %s\n", error.c_str());
  }
}

struct Command {
  std::string_view verb;
  /// Runs under ServerState::command_mu. Only QUERY does not: a blocking
  /// query on one front end must not hold up the other.
  bool serialized;
  void (*run)(ServerState& s, Args& args, std::string* out);
};

/// The command table (QUIT and EXIT, which end the session, aside).
constexpr Command kCommands[] = {
    {"QUERY", false, Query},
    {"INSERT", true,
     [](ServerState& s, Args& args, std::string* out) {
       Update(s, live::UpdateKind::kInsert, "INSERT", args, out);
     }},
    {"DELETE", true,
     [](ServerState& s, Args& args, std::string* out) {
       Update(s, live::UpdateKind::kDelete, "DELETE", args, out);
     }},
    {"CHECKPOINT", true,
     [](ServerState& s, Args&, std::string* out) { s.admin->Checkpoint(out); }},
    {"REFREEZE", true,
     [](ServerState& s, Args&, std::string* out) { s.admin->Refreeze(out); }},
    {"STATS", true, Stats},
    {"METRICS", true,
     [](ServerState& s, Args&, std::string* out) {
       *out += MetricsTextLocked(s);
     }},
    {"SLOWLOG", true, SlowLog},
    {"HISTORY", true, History},
    {"FAILPOINT", true, FailPoint},
    {"TRACE", true, Trace},
};

}  // namespace

ServerApp::ServerApp(std::unique_ptr<ServerState> state)
    : state_(std::move(state)) {}

ServerApp::~ServerApp() = default;

std::unique_ptr<ServerApp> ServerApp::Open(const ServerConfig& config,
                                           int* exit_code) {
  *exit_code = 2;
  const core::DiversityScorer* scorer = core::FindScorer(config.scorer);
  if (scorer == nullptr) {
    std::fprintf(stderr, "error: unknown scorer '%s' (expected one of:",
                 config.scorer.c_str());
    for (const std::string& name : core::ScorerNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return nullptr;
  }
  // Surface injected faults up front: an operator (or the chaos smoke
  // script) should be able to see from the log which points are armed.
  const std::vector<std::string> armed =
      fault::FailPointRegistry::Global().ActiveNames();
  if (!armed.empty()) {
    std::string joined;
    for (const std::string& name : armed) {
      if (!joined.empty()) joined += ", ";
      joined += name;
    }
    std::printf("fail points active: %s%s\n", joined.c_str(),
                fault::kFailPointsCompiledIn
                    ? ""
                    : " (sites compiled out: ESD_FAULT=OFF)");
  }

  auto s = std::make_unique<ServerState>(config);
  s->scorer = scorer;
  std::string error;
  if (!config.file.empty()) {
    if (!graph::LoadEdgeList(config.file, &s->graph, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      *exit_code = 1;
      return nullptr;
    }
  } else {
    s->graph = gen::LoadStandardDataset(config.dataset, config.scale).graph;
  }
  std::printf("graph: n=%u m=%u\n", s->graph.NumVertices(),
              s->graph.NumEdges());
  s->admin = OpenAdmin(config, s->graph, *scorer, &error, exit_code);
  if (s->admin == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return nullptr;
  }

  serve::EsdQueryService::Options opts;
  opts.num_threads = config.threads;
  opts.max_queue = config.max_queue;
  opts.cache_bytes = config.cache_bytes;
  opts.slowlog_capacity = config.slowlog_capacity;
  // Host the service metrics on the process-wide registry so METRICS can
  // dump them alongside the engine counters and phase gauges.
  opts.registry = &Registry();
  // Fold the mode's fault posture (a live index's read-only or open
  // breaker) into the service's Health(): STATS and METRICS report one
  // combined state.
  ServingAdmin* admin = s->admin.get();
  opts.health_source = [admin] { return admin->Health(); };
  s->service =
      std::make_unique<serve::EsdQueryService>(admin->Provider(), opts);
  serve::EsdQueryService* service = s->service.get();
  admin->AttachService(service);
  std::printf("service up: %u worker threads, queue bound %zu%s\n\n",
              service->num_threads(), config.max_queue,
              service->cache() != nullptr ? ", result cache on" : "");

  // Metrics time-series ring behind HISTORY. The pre-sample hook pushes the
  // pull-style gauges (live lag, combined health) so every interval is
  // coherent.
  obs::MetricHistory::Options hopts;
  hopts.capacity = std::max<size_t>(2, config.history_samples);
  hopts.interval = std::chrono::milliseconds(
      config.history_interval_ms == 0 ? 1000 : config.history_interval_ms);
  hopts.pre_sample = [admin, service] {
    admin->ExportMetrics();
    obs::ExportHealth(Registry(), service->Health());
  };
  s->history = std::make_unique<obs::MetricHistory>(Registry(), hopts);
  s->history->SampleNow();  // interval 0 starts at server-up
  if (config.history_interval_ms > 0) s->history->Start();
  *exit_code = 0;
  return std::unique_ptr<ServerApp>(new ServerApp(std::move(s)));
}

serve::EsdQueryService& ServerApp::service() { return *state_->service; }

std::string ServerApp::EngineName() const {
  return state_->admin->EngineName();
}

uint64_t ServerApp::MemoryBytes() const {
  return state_->admin->MemoryBytes();
}

bool ServerApp::Execute(const std::string& line, std::string* out) {
  Args args(line);
  std::string verb;
  args >> verb;
  if (verb.empty()) return true;
  if (verb == "QUIT" || verb == "EXIT") return false;
  for (const Command& command : kCommands) {
    if (command.verb != verb) continue;
    std::unique_lock<std::mutex> lock(state_->command_mu, std::defer_lock);
    if (command.serialized) lock.lock();
    command.run(*state_, args, out);
    return true;
  }
  AppendF(out, "ERR unknown command (QUERY/INSERT/DELETE/CHECKPOINT/"
               "REFREEZE/STATS/METRICS/SLOWLOG/HISTORY/FAILPOINT/TRACE/"
               "QUIT)\n");
  return true;
}

std::string ServerApp::MetricsText() {
  std::lock_guard<std::mutex> lock(state_->command_mu);
  return MetricsTextLocked(*state_);
}

std::string ServerApp::FormatQuery(const serve::QueryResponse& resp) {
  std::string out;
  AppendF(&out, "OK %s %zu edges, queue %.1f us, exec %.1f us\n",
          serve::ResponseStatusName(resp.status), resp.result.size(),
          resp.queue_us, resp.exec_us);
  // The request-scoped attribution: where this query's time went, plus
  // its id (grep the rid in TRACE output), cache outcome, and epoch.
  AppendF(&out, "  rid=%llu epoch=%llu cache=%s",
          static_cast<ull>(resp.ctx.request_id),
          static_cast<ull>(resp.ctx.epoch),
          obs::CacheOutcomeName(resp.ctx.cache));
  AppendF(&out, " stages[us]:");
  for (size_t s = 0; s < obs::kNumStages; ++s) {
    AppendF(&out, " %s=%.1f", obs::StageName(static_cast<obs::Stage>(s)),
            resp.ctx.StageMicros(static_cast<obs::Stage>(s)));
  }
  AppendF(&out, "\n");
  for (size_t i = 0; i < resp.result.size(); ++i) {
    AppendF(&out, "  %zu (%u,%u) %u\n", i + 1, resp.result[i].edge.u,
            resp.result[i].edge.v, resp.result[i].score);
  }
  return out;
}

net::NetServer::Handlers ServerApp::NetHandlers() {
  ServerState& s = *state_;
  net::NetServer::Handlers handlers;
  handlers.submit = [&s](const serve::QueryRequest& rq,
                         std::function<void(serve::QueryResponse)> done) {
    serve::QueryRequest r = rq;
    // Text-mode queries carry no deadline of their own: the configured
    // default applies, same as on stdin.
    if (r.deadline_us == 0) r.deadline_us = s.config.deadline_us;
    s.service->SubmitAsync(r, std::move(done));
  };
  handlers.command = [this](const std::string& line, std::string* out) {
    return Execute(line, out);
  };
  handlers.format_query = &FormatQuery;
  handlers.metrics_text = [this] { return MetricsText(); };
  return handlers;
}

int ServerApp::Serve(std::istream& in) {
  ServerState& s = *state_;
  if (s.config.listen) {
    net::NetServer::Options nopts;
    nopts.bind_address = s.config.bind_address;
    nopts.port = s.config.port;
    nopts.force_poll = s.config.force_poll;
    nopts.drain_timeout = std::chrono::milliseconds(s.config.drain_timeout_ms);
    nopts.registry = &Registry();
    s.net = std::make_unique<net::NetServer>(NetHandlers(), nopts);
    std::string error;
    if (!s.net->Start(&error)) {
      std::fprintf(stderr, "error: listen failed: %s\n", error.c_str());
      return 1;
    }
    g_net_server.store(s.net.get());
    // SIGINT/SIGTERM trigger the graceful drain (stop accepting, serve
    // in-flight queries, flush outboxes, then exit).
    struct sigaction sa {};
    sa.sa_handler = HandleShutdownSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // Readiness line: smoke scripts parse the port off it.
    std::printf("listening on %s:%u (%s backend)\n",
                s.config.bind_address.c_str(), s.net->port(),
                s.net->backend_name());
    std::fflush(stdout);
  }

  // With a listener active, stdin EOF does not end the process (an
  // operator backgrounding the server closes stdin immediately); only a
  // stdin QUIT or a shutdown signal does.
  bool stdin_quit = false;
  std::string line;
  while (!stdin_quit && std::getline(in, line)) {
    std::string out;
    stdin_quit = !Execute(line, &out);
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }
  if (s.net != nullptr) {
    if (stdin_quit) s.net->RequestShutdown();
    s.net->Join();
    g_net_server.store(nullptr);
    // Shutdown waits for the last in-flight completion, so the stats below
    // are final (inflight provably zero after a clean drain).
    s.net->Shutdown();
    const net::NetServer::Stats ns = s.net->SnapStats();
    // The drain line is the smoke tests' proof of graceful shutdown: every
    // accepted connection was closed and nothing was left in flight.
    std::printf("net: drained (accepts=%llu closed=%llu inflight=%llu "
                "parse_errors=%llu backpressure_closes=%llu)\n",
                static_cast<ull>(ns.accepts), static_cast<ull>(ns.closed),
                static_cast<ull>(ns.inflight),
                static_cast<ull>(ns.parse_errors),
                static_cast<ull>(ns.backpressure_closes));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace esd::app
