#ifndef ESD_LIVE_SNAPSHOT_H_
#define ESD_LIVE_SNAPSHOT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dynamic_index.h"
#include "core/frozen_index.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "live/wal.h"
#include "util/thread_pool.h"

namespace esd::live {

/// One published read epoch: an immutable FrozenEsdIndex plus the update
/// watermark it reflects. Readers pin an epoch with one shared_ptr copy and
/// keep serving from it for as long as they like — publication of a newer
/// epoch never invalidates a pinned one (RCU semantics: old epochs are
/// reclaimed when the last reader drops its pin).
struct EpochSnapshot {
  core::FrozenEsdIndex index;
  uint64_t epoch = 0;        ///< 0 for the boot snapshot, +1 per publish
  uint64_t applied_seq = 0;  ///< last WAL seq folded into `index`
  std::chrono::steady_clock::time_point published_at{};

  /// Age of this epoch (now - publish time), the serving-staleness signal.
  double AgeSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         published_at)
        .count();
  }
};

/// The persisted half of a checkpoint: the writer graph plus its update
/// watermark ("ESDS" file: magic + u32 version (2), then u32 scorer id,
/// u64 applied_seq, u32 num_vertices, length-prefixed edge array, trailing
/// u64 FNV-1a checksum, same conventions as index_io, written atomically
/// via tmp-file + rename). A file with any other version fails to load.
struct GraphSnapshotData {
  uint64_t applied_seq = 0;
  graph::VertexId num_vertices = 0;
  std::vector<graph::Edge> edges;
  core::ScorerKind scorer = core::ScorerKind::kEsd;
};

bool SaveGraphSnapshot(const std::string& path, const graph::DynamicGraph& g,
                       uint64_t applied_seq, std::string* error,
                       core::ScorerKind scorer = core::ScorerKind::kEsd);
bool LoadGraphSnapshot(const std::string& path, GraphSnapshotData* out,
                       std::string* error);

/// Called when the post-rename directory fsync of an atomic snapshot write
/// fails. The snapshot data itself is durable (file fsynced before rename);
/// only the rename's directory entry might not survive a power cut, so this
/// is a warning, not a write failure — but it is no longer silent: the
/// esd_snapshot_dir_fsync_failures counter on MetricRegistry::Global() is
/// bumped and this handler (process-wide; tests install their own) runs.
using SnapshotDirFsyncHandler =
    std::function<void(const std::string& dir, int error_code)>;

/// Installs `handler` (empty = counter-only) and returns the previous one.
SnapshotDirFsyncHandler SetSnapshotDirFsyncHandler(
    SnapshotDirFsyncHandler handler);

/// Writer-side state of the live index: owns the maintained
/// DynamicEsdIndex (Section V's Algorithms 4/5 keep it exact under edge
/// updates) and periodically re-freezes it into an immutable
/// FrozenEsdIndex published through an RCU-style std::shared_ptr swap.
///
/// Concurrency contract:
///   * Apply/ApplyBatch/RefreezeNow/GraphCopy serialize on one writer
///     mutex; callers (LiveEsdIndex) add their own WAL ordering on top.
///   * Current() never blocks on writers: one shared_ptr copy under a
///     dedicated publication mutex whose critical sections are O(1)
///     pointer swaps (a refreeze builds the new image under the writer
///     lock, outside the publication lock).
///   * ScheduleRefreeze() coalesces: at most one background refreeze is
///     queued on the pool at a time.
class EpochSnapshotManager {
 public:
  /// Bootstraps the writer index from `base` (a from-scratch build under
  /// `scorer` — the ESD 4-clique build for the default EsdScorer()) and
  /// publishes epoch 0 covering `base_seq`. `scorer` must outlive the
  /// manager; the built-in scorers are process-lifetime singletons.
  EpochSnapshotManager(const graph::Graph& base, uint64_t base_seq,
                       unsigned pool_threads,
                       const core::DiversityScorer& scorer =
                           core::EsdScorer());

  /// Joins in-flight background refreezes (the pool drains before exit).
  ~EpochSnapshotManager() = default;

  EpochSnapshotManager(const EpochSnapshotManager&) = delete;
  EpochSnapshotManager& operator=(const EpochSnapshotManager&) = delete;

  /// Applies one update at watermark `seq` to the writer index, growing
  /// the vertex set as needed (up to `max_vertex_id`). Returns true if the
  /// update changed the graph ("effective"); false for no-ops (duplicate
  /// insert, missing delete, self-loop) and for out-of-bounds endpoints
  /// (*error set in that last case when non-null).
  bool Apply(const WalRecord& record, graph::VertexId max_vertex_id,
             std::string* error);

  /// Rebuilds the frozen image from the writer index and publishes it as a
  /// new epoch. Synchronous; serializes with Apply. Returns false when the
  /// rebuild failed (only possible via the live.refreeze fail point today):
  /// the previous epoch stays published and the circuit breaker counts the
  /// failure — after `breaker_threshold` consecutive failures the breaker
  /// opens and ScheduleRefreeze() skips work until `breaker_cooldown` has
  /// passed, at which point the next schedule is the retry. A success
  /// closes the breaker.
  bool RefreezeNow();

  /// Queues RefreezeNow on the pool unless one is already queued or the
  /// breaker is open and still cooling down.
  void ScheduleRefreeze();

  /// Called after every successful publish (outside the publication lock)
  /// with the new epoch id and its applied_seq watermark — the hook the
  /// serving layer's epoch-keyed result cache uses to rotate generations
  /// proactively instead of waiting for the first post-swap lookup.
  /// Discarded stale publishes (see publish_races) never fire it. May be
  /// invoked from the background refreeze pool; keep it cheap. Replaces
  /// any previous listener; empty clears. Returns only after any running
  /// call of the previous listener has finished, so a caller may destroy
  /// what that listener captured as soon as this returns. Must not be
  /// called from inside the listener.
  using EpochListener = std::function<void(uint64_t epoch, uint64_t seq)>;
  void SetEpochListener(EpochListener listener);

  /// Reconfigures the refreeze circuit breaker (threshold in consecutive
  /// failures; cooldown before a retry is allowed through).
  void ConfigureBreaker(int threshold, std::chrono::milliseconds cooldown);

  bool breaker_open() const {
    return breaker_open_.load(std::memory_order_relaxed);
  }
  uint64_t refreeze_failures() const {
    return refreeze_failures_.load(std::memory_order_relaxed);
  }
  /// Refreezes skipped because the breaker was open.
  uint64_t refreezes_skipped() const {
    return refreezes_skipped_.load(std::memory_order_relaxed);
  }
  /// Stale publishes discarded by the seq guard: a refreeze that froze at
  /// an older applied_seq but reached Publish after a newer one. Without
  /// the guard these would roll readers (and every epoch-keyed cache
  /// generation) back to a stale image.
  uint64_t publish_races() const {
    return publish_races_.load(std::memory_order_relaxed);
  }

  /// The current epoch (pin by keeping the shared_ptr). Never null.
  std::shared_ptr<const EpochSnapshot> Current() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_;
  }

  /// Copy of the writer graph and its watermark, for checkpoint persistence.
  void GraphCopy(graph::DynamicGraph* out, uint64_t* applied_seq) const;

  uint64_t applied_seq() const {
    return applied_seq_.load(std::memory_order_relaxed);
  }
  uint64_t epochs_published() const {
    return epochs_published_.load(std::memory_order_relaxed);
  }

  /// Test/diagnostic access to the writer index. Not synchronized: callers
  /// must quiesce writers first.
  const core::DynamicEsdIndex& writer_unsynchronized() const {
    return writer_;
  }

 private:
  void Publish(core::FrozenEsdIndex frozen, uint64_t seq);

  mutable std::mutex mu_;  // guards writer_ and the breaker bookkeeping
  core::DynamicEsdIndex writer_;
  bool refreeze_queued_ = false;

  // Refreeze circuit breaker (guarded by mu_ except the atomics, which are
  // also read lock-free by Stats/health reporting).
  int breaker_threshold_ = 3;
  std::chrono::milliseconds breaker_cooldown_{100};
  int consecutive_failures_ = 0;
  std::chrono::steady_clock::time_point breaker_opened_at_{};
  std::atomic<bool> breaker_open_{false};
  std::atomic<uint64_t> refreeze_failures_{0};
  std::atomic<uint64_t> refreezes_skipped_{0};

  std::atomic<uint64_t> applied_seq_;
  std::atomic<uint64_t> epochs_published_{0};
  std::atomic<uint64_t> publish_races_{0};

  /// Publication lock: both sides hold it only for one shared_ptr copy or
  /// swap, so readers never wait on an index build. (std::atomic<shared_ptr>
  /// would do, but libstdc++'s lock-bit implementation is opaque to TSan.)
  /// Publish's staleness guard lives under this lock too: an incoming
  /// epoch whose applied_seq is older than the published one is discarded,
  /// which makes (epoch id, applied_seq) jointly monotone — the invariant
  /// the serving layer's result cache keys on.
  mutable std::mutex published_mu_;
  std::shared_ptr<const EpochSnapshot> published_;

  /// Epoch-change notification. Held across each listener call as well
  /// as by SetEpochListener, which therefore waits out a running call
  /// (publishes fire it outside published_mu_).
  mutable std::mutex listener_mu_;
  EpochListener listener_;

  /// Declared last: destroyed first, which drains any queued refreeze
  /// while the members it touches are still alive.
  util::ThreadPool pool_;
};

}  // namespace esd::live

#endif  // ESD_LIVE_SNAPSHOT_H_
