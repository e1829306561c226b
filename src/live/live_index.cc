#include "live/live_index.h"

#include <algorithm>
#include <utility>

#include "fault/failpoint.h"
#include "obs/trace.h"

namespace esd::live {

namespace {

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

obs::MetricRegistry& Registry(const LiveOptions& options) {
  return options.registry != nullptr ? *options.registry
                                     : obs::MetricRegistry::Global();
}

/// The writer's boot in two phases: the ESDIndex+ build of `g` (C_e and
/// M_e as flat pools), then their hand-over to the maintenance state.
core::Maintainer<core::EdgeSizeTable> BootWriter(const graph::Graph& g,
                                                 core::ScorerKind kind,
                                                 obs::PhaseSeries* phases) {
  const core::DiversityScorer& scorer = core::ScorerForKind(kind);
  phases->Begin("live.open.build");
  core::MaintainerBootstrap built = core::BuildMaintainerBootstrap(g, scorer);
  phases->Begin("live.open.handover");
  return core::Maintainer<core::EdgeSizeTable>(
      g, scorer, core::DeletionStrategy::kTargeted, std::move(built));
}

}  // namespace

const char* ApplyStatusName(ApplyStatus status) {
  switch (status) {
    case ApplyStatus::kOk:
      return "ok";
    case ApplyStatus::kBounds:
      return "bounds";
    case ApplyStatus::kWalError:
      return "wal-error";
    case ApplyStatus::kDegraded:
      return "degraded";
  }
  return "?";
}

std::unique_ptr<LiveEsdIndex> LiveEsdIndex::Open(const graph::Graph& bootstrap,
                                                 const LiveOptions& options,
                                                 std::string* error) {
  if (options.wal_path.empty()) {
    SetError(error, "LiveOptions.wal_path is required");
    return nullptr;
  }
  RecoveryOptions rec_options;
  rec_options.wal_path = options.wal_path;
  rec_options.snapshot_path = options.snapshot_path;
  rec_options.expected_scorer = options.scorer;
  obs::PhaseSeries phases(&Registry(options));
  phases.Begin("live.open.recover");
  RecoveredState state;
  if (!Recover(bootstrap, rec_options, &state, error)) return nullptr;

  std::unique_ptr<LiveEsdIndex> live(
      new LiveEsdIndex(options, std::move(state), bootstrap, &phases));
  phases.End();
  if (!live->wal_.Open(options.wal_path, error, options.scorer)) {
    return nullptr;
  }
  return live;
}

LiveEsdIndex::LiveEsdIndex(const LiveOptions& options, RecoveredState recovered,
                           const graph::Graph& bootstrap,
                           obs::PhaseSeries* phases)
    : options_(options),
      recovered_(std::move(recovered)),
      next_seq_(recovered_.applied_seq + 1),
      // Unless recovery changed it, the build runs on the caller's graph.
      writer_(BootWriter(
          recovered_.graph_changed ? recovered_.graph : bootstrap,
          options_.scorer, phases)),
      writer_seq_(recovered_.applied_seq),
      freeze_us_(Registry(options_).GetHistogram(
          "esd_live_stage_freeze_us",
          "Write path: building an epoch from the previous one plus the "
          "changed slots, outside the writer lock, us")),
      changed_slots_(Registry(options_).GetCounter(
          "esd_live_refreeze_changed_slots_total",
          "Slots patched into delta-built epochs")),
      inserts_total_(Registry(options_).GetCounter("esd_live_inserts_total",
                                                   "effective edge inserts")),
      deletes_total_(Registry(options_).GetCounter("esd_live_deletes_total",
                                                   "effective edge deletes")),
      noops_total_(Registry(options_).GetCounter(
          "esd_live_noops_total", "updates that changed nothing")),
      wal_retries_total_(Registry(options_).GetCounter(
          "esd_live_wal_retries_total",
          "extra WAL attempts beyond the first (backoff retries that ran)")),
      wal_failures_total_(Registry(options_).GetCounter(
          "esd_live_wal_append_failures_total",
          "WAL operations that exhausted their retry budget")),
      degraded_total_(Registry(options_).GetCounter(
          "esd_live_degraded_rejections_total",
          "writes rejected because the index was read-only")),
      heals_total_(Registry(options_).GetCounter(
          "esd_live_heals_total",
          "read-only -> ok transitions after WAL recovery")) {
  // The recovered graph lives on inside the writer; drop the copy.
  recovered_.graph = graph::Graph();
  phases->Begin("live.open.freeze");
  core::EdgeSizeTable& table = writer_.mutable_table();
  table.EnableChangeLog();
  Publish(core::Freeze(table), writer_seq_, table.ChangeLogEnd());
  Registry(options_)
      .GetCounter("esd_live_replayed_total",
                  "WAL records folded in during recovery")
      .Inc(recovered_.replay_applied);
}

bool LiveEsdIndex::Apply(const LiveUpdate& update, std::string* error) {
  return ApplyBatch(std::span<const LiveUpdate>(&update, 1), error) == 1;
}

size_t LiveEsdIndex::ApplyBatch(std::span<const LiveUpdate> updates,
                                std::string* error) {
  const ApplyResult result = ApplyBatchTyped(updates);
  if (!result.message.empty()) SetError(error, result.message);
  return result.processed;
}

ApplyResult LiveEsdIndex::ApplyTyped(const LiveUpdate& update) {
  return ApplyBatchTyped(std::span<const LiveUpdate>(&update, 1));
}

void LiveEsdIndex::EnterReadOnlyLocked() {
  read_only_ = true;
  next_probe_ = std::chrono::steady_clock::now() + options_.heal_retry_interval;
}

ApplyResult LiveEsdIndex::ApplyBatchTyped(std::span<const LiveUpdate> updates) {
  ApplyResult result;
  std::lock_guard<std::mutex> lock(live_mu_);
  // Read-only gate: reject instantly unless a heal probe is due. The probe
  // gives the first WAL append below exactly one attempt (no retry storm
  // against a dead disk); success heals the index mid-call.
  bool probing = false;
  if (read_only_) {
    if (std::chrono::steady_clock::now() < next_probe_) {
      ++degraded_rejections_;
      degraded_total_.Inc();
      result.status = ApplyStatus::kDegraded;
      result.message =
          "live index is read-only (WAL unavailable); writes rejected until "
          "a heal probe succeeds";
      return result;
    }
    probing = true;
  }

  std::string append_error;
  bool appended = false;
  for (const LiveUpdate& u : updates) {
    // Bounds are enforced BEFORE the WAL append so the log never contains
    // a record recovery would interpret differently than the writer did.
    const graph::VertexId hi = std::max(u.u, u.v);
    if (u.kind == UpdateKind::kInsert && hi > options_.max_vertex_id) {
      result.status = ApplyStatus::kBounds;
      result.message = "vertex id " + std::to_string(hi) +
                       " exceeds the live index bound " +
                       std::to_string(options_.max_vertex_id);
      break;  // earlier appends in this batch still get their fsync below
    }
    WalRecord rec;
    rec.seq = next_seq_;
    rec.kind = u.kind;
    rec.u = u.u;
    rec.v = u.v;
    bool ok;
    if (probing) {
      ok = wal_.Append(rec, &append_error);
      if (ok) {
        // The WAL is back: heal and let the rest of the batch (and every
        // later write) take the normal retried path again.
        read_only_ = false;
        probing = false;
        ++heals_;
        heals_total_.Inc();
      } else {
        next_probe_ = std::chrono::steady_clock::now() +
                      options_.heal_retry_interval;
        ++degraded_rejections_;
        degraded_total_.Inc();
        result.status = ApplyStatus::kDegraded;
        result.message = "live index heal probe failed: " + append_error;
        return result;
      }
    } else {
      const fault::RetryOutcome out =
          fault::RetryWithBackoff(options_.wal_retry, [&] {
            return wal_.Append(rec, &append_error);
          });
      if (out.attempts > 1) {
        const uint64_t extra = static_cast<uint64_t>(out.attempts) - 1;
        wal_retries_ += extra;
        wal_retries_total_.Inc(extra);
      }
      ok = out.ok;
    }
    if (!ok) {
      ++wal_append_failures_;
      wal_failures_total_.Inc();
      EnterReadOnlyLocked();
      result.status = ApplyStatus::kWalError;
      result.message = "wal append failed after " +
                       std::to_string(options_.wal_retry.max_attempts) +
                       " attempts (" + append_error +
                       "); live index is now read-only";
      break;
    }
    appended = true;
    ++next_seq_;
    bool effective = false;
    {
      std::lock_guard<std::mutex> writer_lock(writer_mu_);
      writer_seq_ = rec.seq;
      if (rec.kind == UpdateKind::kInsert) {
        while (writer_.CurrentGraph().NumVertices() <= hi) writer_.AddVertex();
        effective = writer_.InsertEdge(rec.u, rec.v);
      } else {
        // Deleting outside the vertex set is a no-op miss, never an error.
        effective = hi < writer_.CurrentGraph().NumVertices() &&
                    writer_.DeleteEdge(rec.u, rec.v);
      }
    }
    if (effective) {
      if (u.kind == UpdateKind::kInsert) {
        ++inserts_;
        inserts_total_.Inc();
      } else {
        ++deletes_;
        deletes_total_.Inc();
      }
    } else {
      ++noops_;
      noops_total_.Inc();
    }
    ++result.processed;
    ++since_refreeze_;
  }
  // One durability point per batch: the records are acknowledged together.
  // An fsync that fails through its retries degrades exactly like a failed
  // append — the batch is applied in memory but its durability is not
  // acknowledged.
  if (appended) {
    std::string sync_error;
    const fault::RetryOutcome out = fault::RetryWithBackoff(
        options_.wal_retry, [&] { return wal_.Sync(&sync_error); });
    if (out.attempts > 1) {
      const uint64_t extra = static_cast<uint64_t>(out.attempts) - 1;
      wal_retries_ += extra;
      wal_retries_total_.Inc(extra);
    }
    if (!out.ok) {
      ++wal_append_failures_;
      wal_failures_total_.Inc();
      EnterReadOnlyLocked();
      result.status = ApplyStatus::kWalError;
      result.message = "wal fsync failed after " +
                       std::to_string(options_.wal_retry.max_attempts) +
                       " attempts (" + sync_error +
                       "); live index is now read-only";
    }
  }
  // Durability before visibility: only a batch that reached its fsync may
  // trigger the refreeze that publishes it.
  if (result.status != ApplyStatus::kWalError &&
      options_.refreeze_every != 0 &&
      since_refreeze_ >= options_.refreeze_every) {
    since_refreeze_ %= options_.refreeze_every;  // keep the cadence's phase
    ScheduleRefreeze();
  }
  return result;
}

bool LiveEsdIndex::Checkpoint(std::string* error) {
  ESD_TRACE_SPAN("live.checkpoint");
  if (options_.snapshot_path.empty()) {
    return SetError(error, "checkpointing is disabled: no snapshot_path");
  }
  std::lock_guard<std::mutex> lock(live_mu_);
  obs::Counter& c_failures = Registry(options_).GetCounter(
      "esd_live_checkpoint_failures_total", "Checkpoint() calls that failed");
  // Publish first so readers never regress behind the persisted state. A
  // failed rebuild aborts the checkpoint: the previous epoch, snapshot,
  // and WAL all stay intact, so nothing is lost and a retry is safe.
  if (!RefreezeNow()) {
    ++checkpoint_failures_;
    c_failures.Inc();
    return SetError(error,
                    "checkpoint aborted: epoch rebuild failed (previous "
                    "epoch stays published)");
  }
  graph::DynamicGraph g;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> writer_lock(writer_mu_);
    g = writer_.CurrentGraph();
    seq = writer_seq_;
  }
  if (!SaveGraphSnapshot(options_.snapshot_path, g, seq, error,
                         options_.scorer)) {
    ++checkpoint_failures_;
    c_failures.Inc();
    return false;
  }
  // Crash window here is safe: replay skips records with seq <= snapshot's.
  if (!wal_.TruncateAll(error)) {
    ++checkpoint_failures_;
    c_failures.Inc();
    return false;
  }
  ++checkpoints_;
  Registry(options_)
      .GetCounter("esd_live_checkpoints_total", "successful checkpoints")
      .Inc();
  return true;
}

bool LiveEsdIndex::RefreezeNow() {
  ESD_TRACE_SPAN("live.refreeze");
  std::shared_ptr<const EpochSnapshot> base;
  core::SlotPatch patch;
  core::FrozenEsdIndex frozen;
  bool full = false;
  uint64_t seq = 0;
  uint64_t log_pos = 0;
  {
    // O(change) under the lock. The base is pinned here, not before, so
    // the trim below can never drop a slot some refreeze still needs:
    // every later base is at or past this one.
    std::lock_guard<std::mutex> lock(writer_mu_);
    refreeze_queued_ = false;
    base = CurrentSnapshot();
    core::EdgeSizeTable& table = writer_.mutable_table();
    std::vector<graph::EdgeId> changed;
    if (table.ChangedSince(base->change_log_pos, &changed)) {
      patch = core::CopySlots(table, std::move(changed));
    } else {
      frozen = core::Freeze(table);  // the log was dropped
      full = true;
    }
    seq = writer_seq_;
    log_pos = table.ChangeLogEnd();
    table.TrimChangeLog(base->change_log_pos);
  }
  // The freeze-to-publish window: writer_mu_ is released, so newer updates
  // can be applied — and refrozen by another thread — before this image
  // reaches Publish. The fail point sits here on purpose: an error action
  // models a failed rebuild (previous epoch stays published, breaker
  // counts it), while a delay action parks this thread in exactly the
  // window whose interleaving Publish's seq guard must survive.
  if (ESD_FAILPOINT("live.refreeze")) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    refreeze_failures_.fetch_add(1, std::memory_order_relaxed);
    if (++consecutive_failures_ >= options_.refreeze_breaker_threshold &&
        !breaker_open_.load(std::memory_order_relaxed)) {
      breaker_open_.store(true, std::memory_order_relaxed);
      breaker_opened_at_ = std::chrono::steady_clock::now();
    }
    return false;
  }
  if (!full) {
    const auto t0 = std::chrono::steady_clock::now();
    frozen = core::FrozenEsdIndex::FromDelta(base->index, patch);
    freeze_us_.RecordNanos(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    changed_slots_.Inc(patch.ids.size());
  }
  base.reset();  // unpin before publishing, so the old epoch can go
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    consecutive_failures_ = 0;
    breaker_open_.store(false, std::memory_order_relaxed);
  }
  Publish(std::move(frozen), seq, log_pos);
  return true;
}

void LiveEsdIndex::ScheduleRefreeze() {
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (refreeze_queued_) return;
    if (breaker_open_.load(std::memory_order_relaxed)) {
      const auto now = std::chrono::steady_clock::now();
      if (now - breaker_opened_at_ < options_.refreeze_breaker_cooldown) {
        // Open breaker, still cooling down: don't burn a pool slot on a
        // rebuild that just failed. The skip is counted so operators can
        // see staleness accumulating.
        refreezes_skipped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Cooldown elapsed: let one attempt through (the retry); re-arm the
      // window so a failure waits out another cooldown.
      breaker_opened_at_ = now;
    }
    refreeze_queued_ = true;
  }
  pool_.Post([this] { RefreezeNow(); });
}

void LiveEsdIndex::SetEpochListener(EpochListener listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  listener_ = std::move(listener);
}

void LiveEsdIndex::Publish(core::FrozenEsdIndex frozen, uint64_t seq,
                           uint64_t log_pos) {
  auto snap = std::make_shared<EpochSnapshot>();
  snap->index = std::move(frozen);
  snap->applied_seq = seq;
  snap->change_log_pos = log_pos;
  snap->published_at = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    // Seq guard: freezes are built under writer_mu_ but published after
    // releasing it, so a slow freeze can arrive here after a faster one
    // that folded in more updates. Publishing it would roll readers — and
    // every epoch-keyed result-cache generation — back to a stale image;
    // discard it instead. Epoch ids are assigned under this lock so
    // (epoch, applied_seq) stay jointly monotone.
    if (published_ != nullptr && seq < published_->applied_seq) {
      ++publish_races_;
      return;
    }
    snap->epoch = published_ != nullptr ? published_->epoch + 1 : 0;
    published_ = snap;
  }
  // The call runs under listener_mu_ so that clearing the listener waits
  // for it: a caller tearing down what the listener captures must not
  // race a publish still inside it.
  std::lock_guard<std::mutex> lock(listener_mu_);
  if (listener_) listener_(snap->epoch, snap->applied_seq);
}

obs::HealthState LiveEsdIndex::Health() const {
  // Lock-free on purpose: the query service probes health on every batch,
  // and must not queue behind a write (or a sleeping heal probe) that
  // holds live_mu_.
  if (read_only_.load(std::memory_order_acquire)) {
    return obs::HealthState::kReadOnly;
  }
  return breaker_open_.load(std::memory_order_relaxed)
             ? obs::HealthState::kDegraded
             : obs::HealthState::kOk;
}

LiveStats LiveEsdIndex::Stats() const {
  LiveStats s;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    s.applied_seq = next_seq_ - 1;
    s.inserts = inserts_;
    s.deletes = deletes_;
    s.noops = noops_;
    s.checkpoints = checkpoints_;
    s.wal_bytes = wal_.SizeBytes();
    s.read_only = read_only_;
    s.wal_retries = wal_retries_;
    s.wal_append_failures = wal_append_failures_;
    s.degraded_rejections = degraded_rejections_;
    s.heals = heals_;
    s.checkpoint_failures = checkpoint_failures_;
    s.wal_eintr_retries = wal_.eintr_retries();
  }
  s.breaker_open = breaker_open_.load(std::memory_order_relaxed);
  s.refreeze_failures = refreeze_failures_.load(std::memory_order_relaxed);
  s.refreezes_skipped = refreezes_skipped_.load(std::memory_order_relaxed);
  std::shared_ptr<const EpochSnapshot> snap;
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    snap = published_;
    s.publish_races = publish_races_;
  }
  // Epoch ids are dense from 0, so the current id counts the publishes.
  s.refreezes = snap->epoch + 1;
  s.snapshot_epoch = snap->epoch;
  s.snapshot_seq = snap->applied_seq;
  s.snapshot_age_s = snap->AgeSeconds();
  s.snapshot_lag = s.applied_seq > s.snapshot_seq
                       ? s.applied_seq - s.snapshot_seq
                       : 0;
  s.recovered_replayed = recovered_.replay_applied;
  return s;
}

void LiveEsdIndex::ExportMetrics() const {
  const LiveStats s = Stats();
  obs::MetricRegistry& reg = Registry(options_);
  reg.GetGauge("esd_live_wal_bytes", "current WAL file size")
      .Set(static_cast<double>(s.wal_bytes));
  reg.GetGauge("esd_live_snapshot_age_seconds",
               "age of the serving read epoch")
      .Set(s.snapshot_age_s);
  reg.GetGauge("esd_live_snapshot_lag_updates",
               "updates applied but not yet visible to readers")
      .Set(static_cast<double>(s.snapshot_lag));
  reg.GetGauge("esd_live_epoch", "id of the serving read epoch")
      .Set(static_cast<double>(s.snapshot_epoch));
  reg.GetGauge("esd_live_applied_seq", "newest durable applied update")
      .Set(static_cast<double>(s.applied_seq));
  reg.GetGauge("esd_live_read_only", "1 while the WAL is unavailable")
      .Set(s.read_only ? 1 : 0);
  reg.GetGauge("esd_live_refreeze_breaker_open",
               "1 while the refreeze circuit breaker is open")
      .Set(s.breaker_open ? 1 : 0);
  reg.GetGauge("esd_live_refreeze_failures",
               "failed epoch rebuilds since open")
      .Set(static_cast<double>(s.refreeze_failures));
  reg.GetGauge("esd_live_refreezes_skipped",
               "rebuilds skipped while the breaker was open")
      .Set(static_cast<double>(s.refreezes_skipped));
  reg.GetGauge("esd_live_wal_eintr_retries",
               "EINTR retries absorbed by WAL writes")
      .Set(static_cast<double>(s.wal_eintr_retries));
  reg.GetGauge("esd_live_publish_races",
               "stale epoch publishes discarded by the seq guard")
      .Set(static_cast<double>(s.publish_races));
  obs::ExportHealth(reg, Health());
}

}  // namespace esd::live
