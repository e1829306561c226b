#ifndef ESD_LIVE_LIVE_INDEX_H_
#define ESD_LIVE_LIVE_INDEX_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/edge_size_table.h"
#include "core/frozen_index.h"
#include "core/maintainer.h"
#include "core/query_engine.h"
#include "fault/retry.h"
#include "graph/graph.h"
#include "live/recovery.h"
#include "live/snapshot.h"
#include "live/wal.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace esd::live {

/// Configuration of one live index instance.
struct LiveOptions {
  std::string wal_path;       ///< required
  std::string snapshot_path;  ///< optional: empty disables checkpoints
  /// Diversity scorer this index maintains. The WAL and snapshot files
  /// are stamped with it: opening a directory written under a different
  /// scorer fails typed instead of replaying the wrong semantics.
  core::ScorerKind scorer = core::ScorerKind::kEsd;
  /// Re-freeze (publish a new read epoch) every this many applied updates;
  /// 0 disables automatic refreezes (callers drive RefreezeNow/Checkpoint).
  /// A refreeze costs O(change), so the default trades a few publishes'
  /// CPU for visibility: each epoch also starts a new result-cache
  /// generation and copies the slabs and the chunk table, besides the
  /// slot chunks its changes touch (the rest it shares with its base).
  uint64_t refreeze_every = 64;
  /// Hard bound on vertex ids accepted by inserts (auto-grow limit).
  graph::VertexId max_vertex_id = (1u << 22);
  /// Metrics home; null = obs::MetricRegistry::Global().
  obs::MetricRegistry* registry = nullptr;
  /// Capped-exponential-backoff policy for failed WAL appends and fsyncs.
  /// Exhausting it flips the index read-only (writes rejected typed,
  /// reads keep serving the last good epoch).
  fault::RetryPolicy wal_retry;
  /// While read-only, how long between single-attempt heal probes. The
  /// first write after the interval elapses tries the WAL once; success
  /// heals the index, failure re-arms the interval.
  std::chrono::milliseconds heal_retry_interval{50};
  /// Refreeze circuit breaker: consecutive rebuild failures before it
  /// opens, and how long it stays open before letting a retry through.
  int refreeze_breaker_threshold = 3;
  std::chrono::milliseconds refreeze_breaker_cooldown{100};
};

/// One update submitted to the live index.
struct LiveUpdate {
  UpdateKind kind = UpdateKind::kInsert;
  graph::VertexId u = 0;
  graph::VertexId v = 0;
};

/// Typed outcome of a write call — the contract degraded serving runs on.
enum class ApplyStatus : uint8_t {
  kOk = 0,
  kBounds,    ///< out-of-range vertex id; nothing was logged
  kWalError,  ///< WAL retries exhausted on THIS call; index is now read-only
  kDegraded,  ///< index was already read-only; write rejected untried (or
              ///< the periodic heal probe just failed)
};

const char* ApplyStatusName(ApplyStatus status);

/// What a typed write call did. `processed` updates were applied to the
/// in-memory writer state; on kOk they are also durable. On kWalError the
/// in-memory state may be ahead of the log (the failing update and
/// everything after it were NOT applied; the batch's durability is not
/// guaranteed until the next successful sync).
struct ApplyResult {
  size_t processed = 0;
  ApplyStatus status = ApplyStatus::kOk;
  std::string message;  ///< human-readable cause when status != kOk
};

/// Point-in-time counters of a live index.
struct LiveStats {
  uint64_t applied_seq = 0;      ///< newest durable+applied update
  uint64_t inserts = 0;          ///< effective inserts since Open
  uint64_t deletes = 0;          ///< effective deletes since Open
  uint64_t noops = 0;            ///< updates that did not change the graph
  uint64_t refreezes = 0;        ///< epochs published since Open (boot incl.)
  uint64_t checkpoints = 0;      ///< successful Checkpoint() calls
  uint64_t wal_bytes = 0;        ///< current WAL file size
  uint64_t snapshot_epoch = 0;   ///< epoch id of the current read snapshot
  uint64_t snapshot_seq = 0;     ///< watermark of the current read snapshot
  double snapshot_age_s = 0;     ///< age of the current read snapshot
  uint64_t snapshot_lag = 0;     ///< applied_seq - snapshot_seq
  uint64_t recovered_replayed = 0;  ///< WAL records folded in at Open

  // Fault posture (PR 5): retries, failures, and the degraded-mode flags.
  bool read_only = false;            ///< WAL unavailable; writes rejected
  bool breaker_open = false;         ///< refreeze circuit breaker is open
  uint64_t wal_retries = 0;          ///< extra WAL attempts beyond the first
  uint64_t wal_append_failures = 0;  ///< WAL calls that exhausted retries
  uint64_t degraded_rejections = 0;  ///< writes bounced while read-only
  uint64_t heals = 0;                ///< read-only -> ok transitions
  uint64_t checkpoint_failures = 0;  ///< Checkpoint() calls that failed
  uint64_t refreeze_failures = 0;    ///< failed epoch rebuilds
  uint64_t refreezes_skipped = 0;    ///< rebuilds skipped by the open breaker
  uint64_t wal_eintr_retries = 0;    ///< EINTR retries absorbed by appends
  uint64_t publish_races = 0;        ///< stale publishes discarded by seq guard
};

/// The live serving index: WAL-backed ingestion in front of the paper's
/// maintenance state, recovered on open, read through immutable epochs.
///
/// Write path (Apply/ApplyBatch, serialized on one mutex):
///   1. append the update(s) to the WAL, fsync once per call (durability
///      point — an update is acknowledged only once it would survive
///      SIGKILL),
///   2. apply to the maintenance state — the graph, the edge registry, the
///      per-edge disjoint sets M_e and multisets C_e (Section V,
///      Algorithms 4-5 up to line 19); no H lists are kept, because
///      epochs are frozen straight from C_e,
///   3. every `refreeze_every` applied updates, once the batch is durable,
///      queue a background re-freeze that publishes a fresh immutable
///      FrozenEsdIndex epoch.
///
/// Refreeze (RefreezeNow): each epoch is the previous one plus the slots
/// that changed. The writer table logs every slot it writes and each epoch
/// records its log position. Under writer_mu_ a refreeze only pins the
/// published epoch as its base, copies the slots logged since the base's
/// position into a flat patch, reads the watermark and trims the log to
/// the base's position; FrozenEsdIndex::FromDelta then builds the image
/// outside the lock, sharing with the base every slot chunk the patch
/// leaves alone. The patch holds every slot written after the base
/// was frozen, so a refreeze that fails or loses the publish race drops
/// nothing. When the log was dropped (it never outgrows the slot count),
/// the refreeze falls back to a full Freeze under the lock.
///
/// Read path: CurrentSnapshot()/CurrentEngine() — one O(1) shared_ptr
/// copy; readers keep serving their pinned epoch while newer ones publish
/// (RCU). EsdQueryService serves it through a provider over
/// CurrentSnapshot(), pinning one snapshot per batch.
///
/// Locks, always taken in this order: live_mu_ (WAL order == apply order
/// == seq order), writer_mu_ (maintenance state and refreeze breaker),
/// published_mu_ (the current epoch; held only for a pointer copy or
/// swap, so readers never wait on a build), listener_mu_ (the epoch
/// listener, taken after published_mu_ is released).
///
/// Checkpoint(): publish + persist a graph snapshot, then truncate the WAL.
/// Crash-safe in every interleaving because records carry sequence numbers
/// and recovery skips those at or below the snapshot watermark.
class LiveEsdIndex {
 public:
  /// Recovers durable state (snapshot + WAL suffix; falls back to
  /// `bootstrap` when neither exists), truncates any torn WAL tail, opens
  /// the log for appending, and publishes the boot epoch. Returns null
  /// with *error set on unrecoverable state. When no snapshot or WAL
  /// record changed `bootstrap`, the build reads it as given. The boot is
  /// recorded as the phases live.open.recover, live.open.build (the
  /// ESDIndex+ build of C_e and M_e), live.open.handover (adopting them
  /// into the writer) and live.open.freeze (the boot epoch).
  static std::unique_ptr<LiveEsdIndex> Open(const graph::Graph& bootstrap,
                                            const LiveOptions& options,
                                            std::string* error);

  ~LiveEsdIndex() = default;
  LiveEsdIndex(const LiveEsdIndex&) = delete;
  LiveEsdIndex& operator=(const LiveEsdIndex&) = delete;

  /// Applies one update durably. Returns false on WAL/filesystem errors or
  /// an out-of-bounds vertex id; graph no-ops (duplicate insert, missing
  /// delete) return true and count in Stats().noops. Thin wrapper over
  /// ApplyTyped for callers that only need bool + text.
  bool Apply(const LiveUpdate& update, std::string* error);

  /// Applies a batch with one fsync at the end (the amortized write path).
  /// Stops at the first hard error (*error set; earlier updates remain
  /// applied and durable). Returns the number of updates processed.
  /// Wrapper over ApplyBatchTyped.
  size_t ApplyBatch(std::span<const LiveUpdate> updates, std::string* error);

  /// Typed single-update write (see ApplyResult for the contract).
  ApplyResult ApplyTyped(const LiveUpdate& update);

  /// Typed batched write path, and the seat of fault hardening:
  ///   * each WAL append runs under options.wal_retry (capped exponential
  ///     backoff); transient failures are retried invisibly;
  ///   * exhausting the retries flips the index read-only: this call
  ///     returns kWalError, later writes return kDegraded instantly, and
  ///     reads keep serving the last published epoch untouched;
  ///   * while read-only, one single-attempt heal probe is allowed through
  ///     every options.heal_retry_interval; the first success heals the
  ///     index (the probing batch proceeds normally).
  ApplyResult ApplyBatchTyped(std::span<const LiveUpdate> updates);

  /// Publishes a fresh epoch, persists the graph snapshot, truncates the
  /// WAL. No-op-with-error when options.snapshot_path is empty.
  bool Checkpoint(std::string* error);

  /// Synchronous epoch publish (also available through the background
  /// refreeze schedule): builds the next epoch from the published one and
  /// the slots changed since (see the class comment) and publishes it.
  /// False when the rebuild failed (only possible via the live.refreeze
  /// fail point today): the previous epoch stays published and the
  /// circuit breaker counts the failure — after
  /// options.refreeze_breaker_threshold consecutive failures it opens and
  /// scheduled refreezes are skipped until the cooldown has passed, when
  /// the next schedule is the retry. A success closes the breaker.
  bool RefreezeNow();

  /// Fault posture for health endpoints: read-only beats an open refreeze
  /// breaker (degraded) beats ok.
  obs::HealthState Health() const;

  /// The current read epoch; pin by holding the shared_ptr.
  std::shared_ptr<const EpochSnapshot> CurrentSnapshot() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_;
  }

  /// The current epoch's engine, as an aliasing shared_ptr: the engine
  /// stays valid exactly as long as the returned pointer lives.
  std::shared_ptr<const core::EsdQueryEngine> CurrentEngine() const {
    auto snap = CurrentSnapshot();
    return std::shared_ptr<const core::EsdQueryEngine>(snap, &snap->index);
  }

  /// Installs a callback fired after every successful epoch publish (new
  /// epoch id + applied_seq watermark) — what a serving-layer result cache
  /// hooks to rotate generations as soon as an epoch swaps, instead of on
  /// the first post-swap lookup. Stale publishes discarded by the seq
  /// guard never fire it. Runs on the background refreeze pool; keep it
  /// cheap, and clear it (empty listener) before destroying anything it
  /// captures: the call returns only once no call of the previous
  /// listener is still running. Must not be called from the listener.
  using EpochListener = std::function<void(uint64_t epoch, uint64_t seq)>;
  void SetEpochListener(EpochListener listener);

  LiveStats Stats() const;

  /// Pushes the esd_live_* gauges/counters into the configured registry.
  void ExportMetrics() const;

  /// Recovery outcome of Open (tail status, replayed records, ...).
  const RecoveredState& recovery() const { return recovered_; }

  const LiveOptions& options() const { return options_; }

 private:
  LiveEsdIndex(const LiveOptions& options, RecoveredState recovered,
               const graph::Graph& bootstrap, obs::PhaseSeries* phases);

  /// Flips into read-only mode and arms the next heal probe. live_mu_ held.
  void EnterReadOnlyLocked();

  /// Queues RefreezeNow on the pool unless one is already queued or the
  /// breaker is open and still cooling down.
  void ScheduleRefreeze();

  /// Publishes `frozen` (reflecting `seq` and change-log position
  /// `log_pos`) as the next epoch unless an image with a newer watermark
  /// is already published, then fires the listener.
  void Publish(core::FrozenEsdIndex frozen, uint64_t seq, uint64_t log_pos);

  LiveOptions options_;
  RecoveredState recovered_;

  /// Serializes the write path: WAL append order == apply order == seq
  /// order.
  mutable std::mutex live_mu_;
  WalWriter wal_;
  uint64_t next_seq_ = 1;
  uint64_t since_refreeze_ = 0;
  uint64_t inserts_ = 0;
  uint64_t deletes_ = 0;
  uint64_t noops_ = 0;
  uint64_t checkpoints_ = 0;

  // Degraded-mode state (guarded by live_mu_; read_only_ is atomic so
  // Health() — probed by the query service once per batch — never blocks
  // behind a write or heal probe holding live_mu_).
  std::atomic<bool> read_only_{false};
  std::chrono::steady_clock::time_point next_probe_{};
  uint64_t wal_retries_ = 0;
  uint64_t wal_append_failures_ = 0;
  uint64_t degraded_rejections_ = 0;
  uint64_t heals_ = 0;
  uint64_t checkpoint_failures_ = 0;

  // Guards the maintenance state (its table's change log included), its
  // watermark and the refreeze breaker (the breaker atomics are also read
  // lock-free by Stats and Health).
  mutable std::mutex writer_mu_;
  core::Maintainer<core::EdgeSizeTable> writer_;
  uint64_t writer_seq_ = 0;  ///< last WAL seq folded into writer_
  bool refreeze_queued_ = false;
  int consecutive_failures_ = 0;
  std::chrono::steady_clock::time_point breaker_opened_at_{};
  std::atomic<bool> breaker_open_{false};
  std::atomic<uint64_t> refreeze_failures_{0};
  std::atomic<uint64_t> refreezes_skipped_{0};

  // Publication: both sides hold published_mu_ only for one shared_ptr
  // copy or swap. (std::atomic<shared_ptr> would do, but libstdc++'s
  // lock-bit implementation is opaque to TSan.) Publish's seq guard lives
  // under it too, which makes (epoch id, applied_seq) jointly monotone —
  // the invariant the serving layer's result cache keys on.
  mutable std::mutex published_mu_;
  std::shared_ptr<const EpochSnapshot> published_;
  uint64_t publish_races_ = 0;  ///< stale publishes discarded by the guard

  obs::Histogram& freeze_us_;    ///< delta builds, outside the lock
  obs::Counter& changed_slots_;  ///< slots patched into epochs
  // The esd_live_* mirrors of the write tallies above, resolved once here
  // rather than looked up by name on every ApplyBatchTyped.
  obs::Counter& inserts_total_;
  obs::Counter& deletes_total_;
  obs::Counter& noops_total_;
  obs::Counter& wal_retries_total_;
  obs::Counter& wal_failures_total_;
  obs::Counter& degraded_total_;
  obs::Counter& heals_total_;

  // Held across each listener call as well as by SetEpochListener, which
  // therefore waits out a running call.
  std::mutex listener_mu_;
  EpochListener listener_;

  /// Declared last: destroyed first, which drains any queued refreeze
  /// while the members it touches are still alive.
  util::ThreadPool pool_{2, "refreeze"};
};

}  // namespace esd::live

#endif  // ESD_LIVE_LIVE_INDEX_H_
