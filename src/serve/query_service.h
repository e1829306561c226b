#ifndef ESD_SERVE_QUERY_SERVICE_H_
#define ESD_SERVE_QUERY_SERVICE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/query_engine.h"
#include "obs/health.h"
#include "obs/request_context.h"
#include "serve/metrics.h"
#include "serve/result_cache.h"
#include "serve/slowlog.h"
#include "util/thread_pool.h"

namespace esd::serve {

/// An engine pinned together with the epoch id it serves. Two pins with
/// the same epoch MUST carry the same immutable engine image — the epoch
/// keys the result cache. LiveEsdIndex's seq-guarded publish provides this
/// (epoch ids are monotone in applied_seq).
struct PinnedEngine {
  std::shared_ptr<const core::EsdQueryEngine> engine;
  uint64_t epoch = 0;
};
/// Returns the engine a batch should serve from; called once per batch
/// from any worker thread, and must never return a null engine.
using EpochEngineProvider = std::function<PinnedEngine()>;

/// Provider over a source of shared epoch snapshots exposing `index` and
/// `epoch` — e.g. [&live] { return live.CurrentSnapshot(); }. The pinned
/// engine aliases the snapshot, so it lives exactly as long as the pin.
template <typename CurrentSnapshotFn>
EpochEngineProvider SnapshotProvider(CurrentSnapshotFn current) {
  return [current = std::move(current)] {
    auto snap = current();
    return PinnedEngine{
        std::shared_ptr<const core::EsdQueryEngine>(snap, &snap->index),
        snap->epoch};
  };
}

/// One top-k query as submitted by a client.
struct QueryRequest {
  uint32_t k = 10;
  uint32_t tau = 2;
  bool pad_with_zero_edges = true;
  /// Deadline relative to Submit(), in microseconds; 0 = none. A request
  /// still queued when its deadline passes is answered kDeadlineMissed
  /// without touching the engine (the engine call itself is never aborted).
  uint64_t deadline_us = 0;
  /// Monotonic nanoseconds (obs::MonotonicNanos) when the request actually
  /// arrived — stamped by the network front end at decode time. 0 (the
  /// default) means "now": admission charges queue_wait from its own clock
  /// read. When set, queue_wait and the deadline are anchored at wire
  /// arrival, so time a request spends in socket buffers and the event
  /// loop is attributed to it rather than silently dropped.
  uint64_t arrival_ns = 0;
};

enum class ResponseStatus : uint8_t {
  kOk = 0,
  kRejectedQueueFull,   ///< bounced by bounded admission, never queued
  kDeadlineMissed,      ///< expired while queued, engine never ran
  kShutdown,            ///< submitted after Stop(), or unserved at teardown
};

/// Stable name of `status` ("ok", "rejected", "deadline-missed", ...).
const char* ResponseStatusName(ResponseStatus status);

/// The service's answer to one QueryRequest.
struct QueryResponse {
  ResponseStatus status = ResponseStatus::kOk;
  core::TopKResult result;  ///< empty unless status == kOk
  double queue_us = 0;      ///< admission -> worker pickup (0 if rejected)
  double exec_us = 0;       ///< engine time (0 unless status == kOk)
  /// Request-scoped telemetry: the id minted at admission, the epoch the
  /// answer came from, the cache outcome, and the per-stage attribution
  /// (queue_wait + batch_formation == queue_us; the remaining stages
  /// partition exec_us). Zeroed for rejected/shutdown responses.
  obs::RequestContext ctx;
};

/// Concurrent query service over one EpochEngineProvider — the paper's
/// build-once / query-forever workload as an actual server loop. The
/// provider yields a fixed engine (static serving, generation 0 forever)
/// or a live index's epoch of the moment; the service never asks which.
///
/// Shape: admission moves a request into a bounded ring of reused slots (a
/// full ring rejects instead of blocking, so overload degrades by shedding,
/// not by unbounded memory). Worker loops — run on the existing
/// util::ThreadPool via one long-lived ParallelFor, one loop per pool
/// thread — drain up to max_batch requests per wakeup into a reused batch
/// buffer and serve them batched: each batch pins one engine, and is
/// grouped in place by tau so a FrozenEsdIndex pays its per-tau setup (the
/// slab binary search) once per distinct tau in the batch rather than once
/// per query. Admission wakes a worker only when one is idle. Under low
/// load batches degenerate to size 1 and the service behaves like a plain
/// thread-per-request executor; under load batching kicks in naturally.
///
/// Ahead of the ring sits an optional ResultCache (Options::cache_bytes)
/// keyed by the pinned epoch. On a started service, admission pins the
/// provider's current epoch and probes the cache on the caller's thread: a
/// hit is answered there and then, with no ring slot, worker wake-up or
/// hand-off (queue_wait and batch_formation 0, cache_lookup timed), and
/// only misses enter the ring. The probe is the request's one cache
/// outcome: a worker serving a request that missed at admission does not
/// look it up again. An epoch change invalidates the cache in O(1).
/// Batches are grouped by (tau, k, pad) so identical requests inside one
/// batch are answered once and copied.
///
/// Engines are shared by const reference across all workers, relying on
/// the EsdQueryEngine thread-safety contract: the caller must not mutate
/// an engine (or an online adapter's borrowed graph) while it is served.
/// FrozenEsdIndex, immutable by construction, is the intended engine.
///
/// Every request completes through one channel, its callback: SubmitAsync
/// takes it from the caller, Submit's callback fulfils the future it
/// returned, and Query's fills a waiter on Query's own stack. Stop() (also
/// run by the destructor) drains gracefully: every admitted request is
/// still served, and callbacks running inline on callers' threads finish
/// before it returns; only requests submitted after Stop() — or left
/// queued when a paused service is torn down — see kShutdown.
class EsdQueryService {
 public:
  struct Options {
    /// Worker threads; 0 = util::ThreadPool::DefaultThreadCount().
    unsigned num_threads = 0;
    /// Bounded admission: queue length beyond which Submit rejects.
    size_t max_queue = 1024;
    /// Max requests one worker drains per wakeup (the batching window).
    size_t max_batch = 32;
    /// When true the constructor does not start the workers; requests
    /// queue (and admission/deadlines apply) until Start(). Lets tests
    /// stage a deterministic backlog.
    bool start_paused = false;
    /// Registry the service's esd_serve_* metrics live on. Null (default)
    /// keeps a private embedded registry — load benches rely on starting
    /// from zero. esd_server passes &obs::MetricRegistry::Global() so the
    /// METRICS command scrapes serving metrics alongside everything else.
    obs::MetricRegistry* registry = nullptr;
    /// Upstream health feed folded into Health() (e.g. the LiveEsdIndex's
    /// degraded/read-only state). Called from any thread; empty = the
    /// service reports only its own state.
    std::function<obs::HealthState()> health_source;
    /// Byte budget of the result cache, keyed by the pinned epoch (an
    /// epoch change rotates the cache); 0 (default)
    /// disables caching entirely.
    size_t cache_bytes = 0;
    /// Entry budget of the result cache (split across its shards).
    size_t cache_entries = 1 << 16;
    /// Lock stripes of the result cache.
    size_t cache_shards = 16;
    /// Slow-query forensics (always on): worst requests retained per
    /// trailing window (SlowQueryLog's default window and stripes), served
    /// by slow_log() / esd_server's SLOWLOG.
    size_t slowlog_capacity = 32;
  };

  /// The provider types of the epoch-provider constructor, also reachable
  /// as members.
  using PinnedEngine = serve::PinnedEngine;
  using EpochEngineProvider = serve::EpochEngineProvider;

  /// Serves one fixed engine: a non-owning pin at epoch 0 forever. The
  /// engine must outlive the service.
  EsdQueryService(const core::EsdQueryEngine& engine, const Options& options);
  /// Serves the provider's engine of the moment (e.g. a LiveEsdIndex's
  /// current epoch), pinned once per batch.
  EsdQueryService(EpochEngineProvider provider, const Options& options);
  ~EsdQueryService();

  EsdQueryService(const EsdQueryService&) = delete;
  EsdQueryService& operator=(const EsdQueryService&) = delete;

  /// Starts the worker loops (no-op unless constructed start_paused, or
  /// called twice).
  void Start();

  /// Non-blocking admission. The future is always eventually ready; a
  /// rejected or post-Stop request resolves immediately.
  std::future<QueryResponse> Submit(const QueryRequest& request);

  /// Callback-completion admission: `done` is invoked exactly once with the
  /// response — from a worker thread when the request is served from the
  /// ring, or synchronously on the calling thread, before SubmitAsync
  /// returns, when it bounces at admission (queue full, post-Stop) or is a
  /// result-cache hit. Same admission, deadline, batching, cache, and
  /// telemetry semantics as Submit. The network front end uses this to
  /// fan responses back into its event loop without a blocking future wait
  /// per connection. Because a hit completes on the calling thread, callers
  /// must not hold locks the callback also takes, and a callback must not
  /// call Stop(). An empty `done` drops the response. std::function keeps
  /// a `done` that captures at most a pointer inline, with no allocation.
  void SubmitAsync(const QueryRequest& request,
                   std::function<void(QueryResponse)> done);

  /// Blocking convenience wrapper: SubmitAsync + wait, with no future.
  /// Deadlocks on a paused service (nothing serves the queue, and a paused
  /// service answers nothing inline) — call Start() first.
  QueryResponse Query(const QueryRequest& request);

  /// Stops accepting work, serves everything already admitted, joins the
  /// workers and waits for callbacks of cache hits still running on
  /// callers' threads. Idempotent; called by the destructor.
  void Stop();

  const ServiceMetrics& metrics() const { return metrics_; }
  unsigned num_threads() const { return num_threads_; }

  /// The always-on slow-query ring log (worst requests of the trailing
  /// window, with full per-stage attribution).
  const SlowQueryLog& slow_log() const { return slow_log_; }

  /// Epoch-change notification, wired to LiveEsdIndex::SetEpochListener so
  /// the cache generation rotates at publish time instead of lazily on the
  /// first post-swap lookup. Safe from any thread; no-op when caching is
  /// off.
  void NotifyEpoch(uint64_t epoch) {
    if (cache_) cache_->OnEpochChange(epoch);
  }

  /// The result cache, or null when disabled (cache_bytes == 0). Exposed
  /// for stats surfaces (esd_server STATS, tests).
  const ResultCache* cache() const { return cache_.get(); }

  /// Combined serving health: the worst of this service's own state (a
  /// stopped service is read-only — admitted work still drains but nothing
  /// new is accepted) and the Options::health_source feed.
  obs::HealthState Health() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    QueryRequest request;
    /// The request's one completion channel, invoked exactly once by
    /// Resolve.
    std::function<void(QueryResponse)> callback;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // time_point::max() when none
    /// Telemetry context minted at admission; travels with the request and
    /// is returned in the response.
    obs::RequestContext ctx;
    /// Serving health as last sampled when this request was admitted (the
    /// upstream feed is polled per batch, not per admission).
    obs::HealthState admit_health = obs::HealthState::kOk;
  };

  /// The admission FIFO: a ring of Pending slots that admission moves
  /// requests into and workers move them out of. Its storage grows
  /// geometrically to the high-water mark (never beyond the admission
  /// bound) and is then reused, so a steady-state hand-off allocates
  /// nothing. Not synchronized: guarded by mu_.
  class PendingRing {
   public:
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// Appends `p`, growing the storage up to `limit` slots. Requires
    /// size() < limit.
    void Push(Pending&& p, size_t limit);
    /// Removes and returns the oldest request. Requires !empty().
    Pending Pop();

   private:
    std::vector<Pending> slots_;
    size_t head_ = 0;  ///< slot of the oldest request
    size_t size_ = 0;
  };

  void WorkerLoop();
  /// Serves and resolves `batch`, using `responses` as scratch; both are
  /// the calling worker's buffers, reused across batches.
  void ServeBatch(std::vector<Pending>& batch,
                  std::vector<QueryResponse>& responses);
  /// Answers `p` on the calling thread when the service is started and the
  /// cache holds its answer for the provider's current epoch; returns false
  /// (with p untouched but for a kMiss outcome once the cache was probed)
  /// when the request must go to the ring instead.
  bool ServeInlineHit(Pending& p);
  /// Bookkeeping of one answered request (served or deadline-missed):
  /// metrics, stage histograms, slow log and trace spans. The one routine
  /// behind both the worker's batches and inline hits; `now_ns` is a clock
  /// read the caller already took.
  void RecordAnswered(const Pending& p, const QueryResponse& response,
                      core::ScorerKind scorer, uint64_t now_ns);
  /// Builds a Pending (timestamps, telemetry context, admit health),
  /// honoring QueryRequest::arrival_ns as the enqueue instant when set.
  Pending MakePending(const QueryRequest& request);
  /// Admission bottom half of SubmitAsync: queues `p`, or bounces it
  /// (stopped, `shed_injected`, queue full) on the caller's thread.
  void Enqueue(Pending&& p, bool shed_injected);
  /// Delivers a response through the request's callback. Every Pending
  /// passes through here exactly once — admission bounce, inline hit, Stop
  /// orphan, or served batch.
  static void Resolve(Pending& p, QueryResponse response);

  static std::unique_ptr<ResultCache> MakeCache(const Options& options,
                                                ServiceMetrics& metrics);
  static SlowQueryLog::Options SlowLogOptions(const Options& options);

  /// What every batch serves from, called once per batch.
  const EpochEngineProvider provider_;
  const Options options_;
  // The constructors initialize only the two members above; the rest
  // derive from options_.
  const unsigned num_threads_ = options_.num_threads == 0
                                    ? util::ThreadPool::DefaultThreadCount()
                                    : options_.num_threads;
  const size_t max_queue_ = std::max<size_t>(1, options_.max_queue);
  const size_t max_batch_ = std::max<size_t>(1, options_.max_batch);

  ServiceMetrics metrics_{options_.registry};
  /// Declared after metrics_: the cache registers its esd_cache_* metrics
  /// on metrics_.registry(). Null when caching is disabled.
  std::unique_ptr<ResultCache> cache_ = MakeCache(options_, metrics_);
  SlowQueryLog slow_log_{SlowLogOptions(options_)};
  /// Latest upstream health observation (one byte of HealthState),
  /// refreshed once per served batch and stamped into admissions — slow-log
  /// entries carry it without a per-request lock on the health source.
  std::atomic<uint8_t> last_health_{0};
  util::ThreadPool pool_{num_threads_, "serve-worker"};

  mutable std::mutex mu_;
  std::condition_variable queue_ready_;
  PendingRing queue_;
  /// Workers blocked on (or about to re-check) queue_ready_; admission
  /// notifies only when this is nonzero.
  size_t idle_workers_ = 0;
  bool stop_ = false;
  bool started_ = false;

  /// Gate of the inline hit path: kInlineClosed is set until Start() and
  /// again from Stop() on; the rest counts inline hits in flight, in units
  /// of kInlineOne. An open gate is entered and left with one atomic each,
  /// without mu_; a hit that leaves a closed gate does so under mu_ and
  /// wakes Stop(), which waits on inline_drained_ for the count to reach 0.
  static constexpr uint64_t kInlineClosed = 1;
  static constexpr uint64_t kInlineOne = 2;
  std::atomic<uint64_t> inline_gate_{kInlineClosed};
  std::condition_variable inline_drained_;

  /// Drives pool_.ParallelFor(0, num_threads_, ...) with one WorkerLoop per
  /// iteration; exists so construction returns while workers run.
  std::thread runner_;
};

}  // namespace esd::serve

#endif  // ESD_SERVE_QUERY_SERVICE_H_
