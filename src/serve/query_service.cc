#include "serve/query_service.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/frozen_index.h"
#include "core/scorer.h"
#include "fault/failpoint.h"
#include "obs/trace.h"

namespace esd::serve {

namespace {

double Micros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

uint64_t Nanos(std::chrono::steady_clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

/// One batch's pinned engine. The pin keeps the served image alive until
/// the batch ends, even if the provider publishes a newer one meanwhile.
/// Owns the FrozenEsdIndex fast path: the slab binary search runs once per
/// distinct tau in a batch, and slab scan and zero-edge padding run under
/// separate clocks.
struct BatchEngine {
  explicit BatchEngine(PinnedEngine pinned)
      : engine(std::move(pinned.engine)),
        epoch(pinned.epoch),
        scorer(engine->Scorer()),
        frozen(dynamic_cast<const core::FrozenEsdIndex*>(engine.get())) {}

  /// Miss path: answers one query. Sets *scan_end_ns to
  /// obs::MonotonicNanos() when the slab scan ended and zero-edge padding
  /// began; leaves it 0 when the call ran no separate padding phase (the
  /// whole call is then attributed to slab_scan).
  core::TopKResult Execute(uint32_t k, uint32_t tau, bool pad_with_zero_edges,
                           uint64_t* scan_end_ns) {
    if (frozen == nullptr || k == 0 || tau == 0) {
      // Degenerate (k or tau 0) or non-frozen engine: per-request path,
      // attributed wholly to slab_scan.
      return engine->Query(k, tau, pad_with_zero_edges);
    }
    if (slab_tau != tau) {
      slab = frozen->FindSlab(tau);
      slab_tau = tau;
    }
    // Scan and padding run under separate clocks (identical answer to
    // QueryAtSlab(slab, k, pad)): deep-k padding dominates misses under
    // skew, and this is where that shows up.
    core::TopKResult result = frozen->QueryAtSlab(slab, k, false);
    if (pad_with_zero_edges) {
      *scan_end_ns = obs::MonotonicNanos();
      frozen->PadQueryResult(slab, k, &result);
    }
    return result;
  }

  const std::shared_ptr<const core::EsdQueryEngine> engine;
  /// Result-cache key: two pins with the same epoch answer every query
  /// identically.
  const uint64_t epoch;
  const core::ScorerKind scorer;
  /// engine as a FrozenEsdIndex, when it is one.
  const core::FrozenEsdIndex* const frozen;
  /// The last slab looked up in this batch and the tau it was found for
  /// (0 = none yet).
  size_t slab = core::FrozenEsdIndex::kNoSlab;
  uint32_t slab_tau = 0;
};

/// A provider of one fixed engine, pinned without ownership at epoch 0:
/// aliasing an empty owner, so copies of the pin touch no reference count.
EpochEngineProvider FixedEngine(const core::EsdQueryEngine& engine) {
  return [pin = PinnedEngine{std::shared_ptr<const core::EsdQueryEngine>(
                                 std::shared_ptr<const void>(), &engine),
                             0}] { return pin; };
}

}  // namespace

const char* ResponseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kRejectedQueueFull:
      return "rejected";
    case ResponseStatus::kDeadlineMissed:
      return "deadline-missed";
    case ResponseStatus::kShutdown:
      return "shutdown";
  }
  return "?";
}

SlowQueryLog::Options EsdQueryService::SlowLogOptions(const Options& o) {
  SlowQueryLog::Options s;
  s.capacity = o.slowlog_capacity;
  return s;
}

std::unique_ptr<ResultCache> EsdQueryService::MakeCache(
    const Options& options, ServiceMetrics& metrics) {
  if (options.cache_bytes == 0) return nullptr;
  ResultCache::Options copts;
  copts.max_bytes = options.cache_bytes;
  copts.max_entries = options.cache_entries;
  copts.shards = options.cache_shards;
  return std::make_unique<ResultCache>(copts, metrics.registry());
}

EsdQueryService::EsdQueryService(const core::EsdQueryEngine& engine,
                                 const Options& options)
    : EsdQueryService(FixedEngine(engine), options) {}

EsdQueryService::EsdQueryService(EpochEngineProvider provider,
                                 const Options& options)
    : provider_(std::move(provider)), options_(options) {
  if (!options.start_paused) Start();
}

EsdQueryService::~EsdQueryService() { Stop(); }

void EsdQueryService::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || stop_) return;
    started_ = true;
    // Cache hits may now be answered on callers' threads.
    inline_gate_.fetch_and(~kInlineClosed);
  }
  runner_ = std::thread([this] {
    // The runner participates in its own ParallelFor, so it is worker 0;
    // the pool's spawned threads are serve-worker-1..N-1.
    obs::Tracer::Global().SetCurrentThreadName("serve-worker-0");
    pool_.ParallelFor(0, num_threads_, 1, [this](uint64_t) { WorkerLoop(); });
  });
}

EsdQueryService::Pending EsdQueryService::MakePending(
    const QueryRequest& request) {
  Pending p;
  p.request = request;
  // Wire-stamped requests anchor at arrival: steady_clock is the clock
  // behind obs::MonotonicNanos, so the nanosecond stamp converts back to a
  // time_point on the same timeline and queue_wait covers the socket and
  // event-loop leg too, not just the admission queue.
  p.enqueued = request.arrival_ns == 0
                   ? Clock::now()
                   : Clock::time_point(
                         std::chrono::nanoseconds(request.arrival_ns));
  p.deadline =
      request.deadline_us == 0
          ? Clock::time_point::max()
          : p.enqueued + std::chrono::microseconds(request.deadline_us);
  // Telemetry context: the id minted here follows the request through
  // batching, cache, slab execution, and back out in the response (and
  // joins its trace spans under one rid).
  p.ctx.request_id = obs::RequestContext::MintId();
  p.ctx.admit_ns = Nanos(p.enqueued);
  p.admit_health =
      static_cast<obs::HealthState>(last_health_.load(std::memory_order_relaxed));
  return p;
}

void EsdQueryService::Resolve(Pending& p, QueryResponse response) {
  // An empty callback asked for no answer.
  if (p.callback) p.callback(std::move(response));
}

void EsdQueryService::PendingRing::Push(Pending&& p, size_t limit) {
  if (size_ == slots_.size()) {
    // Full: re-lay the queued requests, oldest first, into a ring twice
    // the size (at most `limit`). Grown storage is kept for reuse.
    constexpr size_t kMinSlots = 16;
    std::vector<Pending> grown(
        std::min(limit, std::max(kMinSlots, 2 * slots_.size())));
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) % slots_.size()]);
    }
    slots_.swap(grown);
    head_ = 0;
  }
  size_t tail = head_ + size_;
  if (tail >= slots_.size()) tail -= slots_.size();
  slots_[tail] = std::move(p);
  ++size_;
}

EsdQueryService::Pending EsdQueryService::PendingRing::Pop() {
  Pending p = std::move(slots_[head_]);
  if (++head_ == slots_.size()) head_ = 0;
  --size_;
  return p;
}

std::future<QueryResponse> EsdQueryService::Submit(
    const QueryRequest& request) {
  // The callback owns the promise: Resolve runs it exactly once.
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  SubmitAsync(request, [promise](QueryResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void EsdQueryService::SubmitAsync(const QueryRequest& request,
                                  std::function<void(QueryResponse)> done) {
  Pending p = MakePending(request);
  p.callback = std::move(done);
  // Admission fail point: a fired error action sheds this request exactly
  // like a full queue would (same typed status, same metrics), letting
  // tests and drills exercise the shedding path under any load.
  const bool shed_injected = ESD_FAILPOINT("serve.admission").fired;
  if (!shed_injected && cache_ != nullptr && ServeInlineHit(p)) return;
  Enqueue(std::move(p), shed_injected);
}

bool EsdQueryService::ServeInlineHit(Pending& p) {
  // Enter the gate unless it is closed (paused or stopped service: the
  // request goes to the ring, which stages it or bounces it).
  uint64_t gate = inline_gate_.load();
  do {
    if ((gate & kInlineClosed) != 0) return false;
  } while (!inline_gate_.compare_exchange_weak(gate, gate + kInlineOne));

  // In-process requests start their probe at the admission clock read, so
  // their queue_wait is exactly 0; a wire-stamped one keeps its socket and
  // event-loop leg as queue_wait.
  const bool wire = p.request.arrival_ns != 0;
  const Clock::time_point picked_up = wire ? Clock::now() : p.enqueued;
  bool served = false;
  // An expired request goes to the ring, whose worker answers
  // kDeadlineMissed.
  if (picked_up <= p.deadline) {
    const uint64_t t0 = wire ? Nanos(picked_up) : p.ctx.admit_ns;
    const PinnedEngine pinned = provider_();
    QueryResponse response;
    const QueryRequest& rq = p.request;
    if (cache_->Lookup(pinned.epoch, rq.tau, rq.k, rq.pad_with_zero_edges,
                       &response.result)) {
      const uint64_t t1 = obs::MonotonicNanos();
      response.ctx = p.ctx;
      obs::RequestContext& ctx = response.ctx;
      ctx.epoch = pinned.epoch;
      ctx.cache = obs::CacheOutcome::kHit;
      ctx.Charge(obs::Stage::kQueueWait,
                 t0 > ctx.admit_ns ? t0 - ctx.admit_ns : 0);
      ctx.Charge(obs::Stage::kCacheLookup, t1 - t0);
      response.queue_us = Micros(picked_up - p.enqueued);
      response.exec_us = static_cast<double>(t1 - t0) * 1e-3;
      response.status = ResponseStatus::kOk;
      metrics_.RecordAccepted();
      metrics_.RecordInlineHit();
      RecordAnswered(p, response, pinned.engine->Scorer(), t1);
      Resolve(p, std::move(response));
      served = true;
    } else {
      // The lookup counted this request's miss; the worker that serves it
      // sees kMiss and does not look it up again.
      p.ctx.cache = obs::CacheOutcome::kMiss;
    }
  }

  // Leave the gate. While it is open that is one atomic; once Stop() has
  // closed it, under mu_, so Stop() cannot see the count reach 0 and
  // return before this thread is done touching the service.
  gate = inline_gate_.load();
  do {
    if ((gate & kInlineClosed) != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (inline_gate_.fetch_sub(kInlineOne) == kInlineClosed + kInlineOne) {
        inline_drained_.notify_all();
      }
      break;
    }
  } while (!inline_gate_.compare_exchange_weak(gate, gate - kInlineOne));
  return served;
}

void EsdQueryService::Enqueue(Pending&& p, bool shed_injected) {
  ResponseStatus bounce = ResponseStatus::kOk;
  size_t depth = 0;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      bounce = ResponseStatus::kShutdown;
    } else if (shed_injected || queue_.size() >= max_queue_) {
      bounce = ResponseStatus::kRejectedQueueFull;
    } else {
      queue_.Push(std::move(p), max_queue_);
      // A busy worker re-checks the queue before it waits again, so only
      // an idle one needs a wake-up.
      wake = idle_workers_ > 0;
    }
    depth = queue_.size();
  }
  metrics_.SetQueueDepth(depth);
  if (bounce != ResponseStatus::kOk) {
    // p was not moved into the queue on this branch; resolve it here, on
    // the caller's thread (SubmitAsync documents this synchronous case).
    metrics_.RecordRejected();
    QueryResponse response;
    response.status = bounce;
    Resolve(p, std::move(response));
  } else {
    metrics_.RecordAccepted();
    if (wake) queue_ready_.notify_one();
  }
}

QueryResponse EsdQueryService::Query(const QueryRequest& request) {
  // The callback captures one pointer to this frame, which std::function
  // stores inline, and fills it under the lock: no promise, no allocation.
  // The frame outlives the callback's last touch, its unlock.
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    QueryResponse response;
  } w;
  SubmitAsync(request, [&w](QueryResponse response) {
    std::lock_guard<std::mutex> lock(w.mu);
    w.response = std::move(response);
    w.done = true;
    w.cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(w.mu);
  w.cv.wait(lock, [&w] { return w.done; });
  return std::move(w.response);
}

void EsdQueryService::Stop() {
  std::vector<Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    inline_gate_.fetch_or(kInlineClosed);
    if (!started_) {
      // Paused service: no worker will ever drain the queue; answer the
      // backlog here instead of leaving callbacks unrun.
      orphans.reserve(queue_.size());
      while (!queue_.empty()) orphans.push_back(queue_.Pop());
    }
  }
  queue_ready_.notify_all();
  for (Pending& p : orphans) {
    QueryResponse response;
    response.status = ResponseStatus::kShutdown;
    Resolve(p, std::move(response));
  }
  if (runner_.joinable()) runner_.join();
  // Cache hits answered on callers' threads finish too, as the workers
  // just did.
  std::unique_lock<std::mutex> lock(mu_);
  inline_drained_.wait(
      lock, [this] { return inline_gate_.load() == kInlineClosed; });
}

void EsdQueryService::WorkerLoop() {
  // This worker's buffers, reused across batches: once they have grown to
  // the largest batch seen, serving a batch allocates nothing here.
  std::vector<Pending> batch;
  std::vector<QueryResponse> responses;
  while (true) {
    size_t depth = 0;
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_workers_;
      queue_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_workers_;
      if (queue_.empty()) return;  // stop_ set and backlog drained
      const size_t take = std::min(max_batch_, queue_.size());
      for (size_t i = 0; i < take; ++i) batch.push_back(queue_.Pop());
      depth = queue_.size();
      // More work remains: hand it to an idle worker, if there is one.
      wake = depth > 0 && idle_workers_ > 0;
    }
    if (wake) queue_ready_.notify_one();
    metrics_.SetQueueDepth(depth);
    ServeBatch(batch, responses);
    // Drops the resolved callbacks (and whatever they captured) now, not
    // at the next batch.
    batch.clear();
  }
}

void EsdQueryService::RecordAnswered(const Pending& p,
                                     const QueryResponse& response,
                                     core::ScorerKind scorer,
                                     uint64_t now_ns) {
  const obs::RequestContext& ctx = response.ctx;
  const bool missed = response.status == ResponseStatus::kDeadlineMissed;
  if (missed) {
    metrics_.RecordDeadlineMissed(response.queue_us);
  } else {
    metrics_.RecordCompleted(response.queue_us, response.exec_us);
    metrics_.RecordStages(ctx);
  }
  // Missed deadlines are forensic gold: they enter the slow log with their
  // queue-side attribution even though the engine never ran.
  SlowQueryRecord rec;
  rec.request_id = ctx.request_id;
  rec.epoch = ctx.epoch;
  // Stamped from a timestamp the caller already took, so the slow log
  // never reads the clock itself on the hot path.
  rec.recorded_ns = now_ns;
  rec.tau = p.request.tau;
  rec.k = p.request.k;
  rec.pad_with_zero_edges = p.request.pad_with_zero_edges;
  rec.deadline_missed = missed;
  rec.scorer = scorer;
  rec.cache = ctx.cache;
  rec.health = p.admit_health;
  rec.queue_us = response.queue_us;
  rec.exec_us = response.exec_us;
  rec.total_us = response.queue_us + response.exec_us;
  for (size_t s = 0; s < obs::kNumStages; ++s) {
    rec.stage_us[s] = static_cast<double>(ctx.stage_ns[s]) * 1e-3;
  }
  slow_log_.Record(std::move(rec));
  obs::Tracer& tracer = obs::Tracer::Global();
  if (!missed && tracer.enabled()) {
    // One span per stage (execution stages only when nonzero), all joined
    // by args.rid — a filtered Perfetto view reassembles this request's
    // admission -> batch -> slab timeline even though it shared a batch and
    // a worker track. The stages are contiguous from admission on, so each
    // starts where the one before it ended.
    uint64_t start = ctx.admit_ns;
    for (size_t s = 0; s < obs::kNumStages; ++s) {
      const auto stage = static_cast<obs::Stage>(s);
      const uint64_t ns = ctx.StageNanos(stage);
      if (stage <= obs::Stage::kBatchFormation || ns > 0) {
        tracer.RecordComplete(obs::StageSpanName(stage), start, ns,
                              ctx.request_id);
      }
      start += ns;
    }
  }
}

obs::HealthState EsdQueryService::Health() const {
  obs::HealthState own = obs::HealthState::kOk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) own = obs::HealthState::kReadOnly;
  }
  if (options_.health_source) {
    return obs::WorseHealth(own, options_.health_source());
  }
  return own;
}

void EsdQueryService::ServeBatch(std::vector<Pending>& batch,
                                 std::vector<QueryResponse>& responses) {
  ESD_TRACE_SPAN("serve.batch");
  // Worker-stall fail point: a delay() spec here holds the whole batch
  // after pickup, the knob the deadline-expiry and queue-full tests turn.
  (void)ESD_FAILPOINT("serve.worker");
  // Attribution epoch boundary: time before this instant is queue_wait,
  // time between it and a request's own turn is batch_formation (their sum
  // is the classic queue_us).
  const uint64_t batch_start_ns = obs::MonotonicNanos();
  // Pin once per batch: the epoch keys the cache, and the pin keeps this
  // batch's image alive even while the provider publishes newer ones (RCU
  // read-side).
  BatchEngine pinned(provider_());
  // Per-batch forensic stamps: upstream health is polled here (not per
  // request) and published for future admissions to pick up.
  if (options_.health_source) {
    last_health_.store(static_cast<uint8_t>(options_.health_source()),
                       std::memory_order_relaxed);
  }
  // Group by (tau, k, pad) so the engine's per-tau setup runs once per
  // distinct tau in the batch — one ascending-tau sweep — and identical
  // requests land adjacent, where the dedup below answers them once. An
  // in-place insertion sort: stable (FIFO kept among identical requests),
  // allocation-free, and quadratic only in max_batch.
  auto before = [](const Pending& a, const Pending& b) {
    if (a.request.tau != b.request.tau) return a.request.tau < b.request.tau;
    if (a.request.k != b.request.k) return a.request.k < b.request.k;
    return a.request.pad_with_zero_edges < b.request.pad_with_zero_edges;
  };
  for (size_t i = 1; i < batch.size(); ++i) {
    if (!before(batch[i], batch[i - 1])) continue;
    Pending moving = std::move(batch[i]);
    size_t j = i;
    do {
      batch[j] = std::move(batch[j - 1]);
      --j;
    } while (j > 0 && before(moving, batch[j - 1]));
    batch[j] = std::move(moving);
  }
  // Two passes — serve everything (recording per-request and per-batch
  // metrics), then resolve the callbacks — so by the time any client
  // observes a response, every metric for this batch is already visible.
  responses.clear();
  responses.resize(batch.size());
  size_t executed = 0;
  size_t distinct_taus = 0;
  // A tau counts once per batch no matter how many requests carry it or
  // which engine path serves them.
  uint32_t last_tau = 0;
  bool have_tau = false;
  // Intra-batch dedup: the previous executed request's (tau, k, pad) and
  // its answer (stable pointer into `responses`).
  const QueryRequest* prev_rq = nullptr;
  const core::TopKResult* prev_result = nullptr;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Pending& p = batch[i];
    const Clock::time_point picked_up = Clock::now();
    const uint64_t t0 = Nanos(picked_up);
    QueryResponse& response = responses[i];
    response.ctx = p.ctx;
    obs::RequestContext& ctx = response.ctx;
    ctx.epoch = pinned.epoch;
    response.queue_us = Micros(picked_up - p.enqueued);
    // queue_wait ends where the batch began; everything since is
    // batch_formation (sort, engine pin, earlier batchmates). Together
    // they are exactly queue_us.
    ctx.Charge(obs::Stage::kQueueWait, batch_start_ns > ctx.admit_ns
                                           ? batch_start_ns - ctx.admit_ns
                                           : 0);
    ctx.Charge(obs::Stage::kBatchFormation,
               t0 > batch_start_ns ? t0 - batch_start_ns : 0);
    if (picked_up > p.deadline) {
      response.status = ResponseStatus::kDeadlineMissed;
      RecordAnswered(p, response, pinned.scorer, t0);
    } else {
      const QueryRequest& rq = p.request;
      if (!have_tau || last_tau != rq.tau) {
        ++distinct_taus;
        last_tau = rq.tau;
        have_tau = true;
      }
      // Stage boundaries within this request's execution window:
      // t0..t1 cache_lookup, t1..t2 slab_scan, t2..t3 padding_scan,
      // t3..t4 merge.
      uint64_t t1 = t0;
      uint64_t t2 = t0;
      uint64_t t3 = t0;
      // A request that missed the cache at admission has had its one
      // lookup (and its one counted outcome): it is not looked up again.
      const bool look_up =
          cache_ != nullptr && ctx.cache != obs::CacheOutcome::kMiss;
      if (prev_rq != nullptr && prev_rq->tau == rq.tau &&
          prev_rq->k == rq.k &&
          prev_rq->pad_with_zero_edges == rq.pad_with_zero_edges) {
        // Identical to the previous request of this batch (same pinned
        // engine): copy its answer (the copy itself is merge work).
        t1 = t2 = t3 = obs::MonotonicNanos();
        ctx.cache = obs::CacheOutcome::kDedup;
        response.result = *prev_result;
      } else if (look_up &&
                 cache_->Lookup(pinned.epoch, rq.tau, rq.k,
                                rq.pad_with_zero_edges, &response.result)) {
        // Cache hit: answered without touching the engine.
        t1 = t2 = t3 = obs::MonotonicNanos();
        ctx.cache = obs::CacheOutcome::kHit;
      } else {
        ctx.cache = cache_ != nullptr ? obs::CacheOutcome::kMiss
                                      : obs::CacheOutcome::kNone;
        // Without a lookup here there is nothing to time: cache_lookup is
        // zero and the clock read would only measure itself.
        t1 = look_up ? obs::MonotonicNanos() : t0;
        uint64_t scan_end_ns = 0;
        response.result = pinned.Execute(rq.k, rq.tau, rq.pad_with_zero_edges,
                                         &scan_end_ns);
        t3 = obs::MonotonicNanos();
        t2 = scan_end_ns != 0 ? scan_end_ns : t3;
        if (cache_ != nullptr) {
          cache_->Insert(pinned.epoch, rq.tau, rq.k, rq.pad_with_zero_edges,
                         response.result);
        }
      }
      prev_rq = &rq;
      prev_result = &response.result;
      const uint64_t t4 = obs::MonotonicNanos();
      ctx.Charge(obs::Stage::kCacheLookup, t1 - t0);
      ctx.Charge(obs::Stage::kSlabScan, t2 - t1);
      ctx.Charge(obs::Stage::kPaddingScan, t3 - t2);
      ctx.Charge(obs::Stage::kMerge, t4 - t3);
      response.exec_us = static_cast<double>(t4 - t0) * 1e-3;
      response.status = ResponseStatus::kOk;
      ++executed;
      RecordAnswered(p, response, pinned.scorer, t4);
    }
  }
  if (executed > 0) metrics_.RecordBatch(distinct_taus, executed);
  for (size_t i = 0; i < batch.size(); ++i) {
    Resolve(batch[i], std::move(responses[i]));
  }
}

}  // namespace esd::serve
