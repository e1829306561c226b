#ifndef ESD_SERVE_SERVING_BACKEND_H_
#define ESD_SERVE_SERVING_BACKEND_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "core/frozen_index.h"
#include "core/query_engine.h"
#include "core/scorer.h"
#include "core/topk_result.h"
#include "obs/health.h"

namespace esd::serve {

/// Fleet health tally stamped into every sharded QueryResponse: how many
/// shards served (ok) or were left out of (down) the answer. ok + degraded
/// + down is the configured shard count; all zero when serving is
/// unsharded.
struct ShardCounts {
  uint16_t ok = 0;
  /// Alive but excluded. Always 0: every shard serves the one writer's
  /// last good epoch, so none is ever stale. Kept on the wire.
  uint16_t degraded = 0;
  uint16_t down = 0;  ///< probe errored or stall breaker open
  bool all_ok() const { return degraded == 0 && down == 0; }
  friend bool operator==(const ShardCounts&, const ShardCounts&) = default;
};

/// One miss-path execution's outcome.
struct ExecuteOutcome {
  core::TopKResult result;
  /// Fleet tally at execution time (may differ from the batch-level pin if
  /// a shard changed state mid-batch; the response carries this one).
  ShardCounts shards;
  /// Execution hit the deadline before completing; `result` is partial
  /// junk and the caller must answer kDeadlineMissed instead.
  bool deadline_expired = false;
  /// Slab entries a sharded walk emitted into the answer — the early-exit
  /// bound's observable: at most k. 0 when unsharded.
  uint64_t drained_entries = 0;
  /// obs::MonotonicNanos() when the slab scan ended and zero-edge padding
  /// began; 0 when the call ran no separate padding phase (the whole call
  /// is then attributed to slab_scan).
  uint64_t scan_end_ns = 0;
};
/// The name the shard layer's callers use.
using ShardedOutcome = ExecuteOutcome;

class ServingBackend;

/// What one batch serves from, pinned once per batch by
/// ServingBackend::Pin(). Every request of the batch sees the same
/// generation, and the pin keeps the served image alive until the batch
/// drops the view, even if the backend publishes a newer one meanwhile.
struct ServingView {
  /// Result-cache key: two views with the same generation answer every
  /// query identically. 0 for a static engine, the epoch for live serving,
  /// the fleet generation for sharded serving.
  uint64_t generation = 0;
  ShardCounts shards;  ///< all zero when unsharded
  core::ScorerKind scorer = core::ScorerKind::kEsd;

  /// Miss path: answers one query from this view, giving up at `deadline`
  /// where the backend can (a sharded walk).
  ExecuteOutcome Execute(uint32_t k, uint32_t tau, bool pad_with_zero_edges,
                         std::chrono::steady_clock::time_point deadline);

  // Pin state, read only by the backend that produced the view.
  ServingBackend* backend = nullptr;
  /// The pinned engine image.
  std::shared_ptr<const core::EsdQueryEngine> engine;
  /// engine as a FrozenEsdIndex, when it is one: enables the batched
  /// slab-reuse path (always set for sharded views).
  const core::FrozenEsdIndex* frozen = nullptr;
  /// The last slab looked up in this batch and the tau it was found for
  /// (0 = none yet), so the slab binary search runs once per distinct tau.
  size_t slab = core::FrozenEsdIndex::kNoSlab;
  uint32_t slab_tau = 0;
};

/// The one seam between EsdQueryService and whatever it serves from.
///
/// Thread-safety contract: Pin(), Execute() and Health() are callable
/// concurrently from all serving workers (each on its own view), and none
/// may block on the backend's write path — a stalled WAL heal probe must
/// never stall a reader. Neither may allocate per call beyond the answer
/// itself: the service calls Pin() once per batch and Execute() once per
/// cache miss.
class ServingBackend {
 public:
  virtual ~ServingBackend() = default;

  /// Pins the current image for one batch.
  virtual ServingView Pin() = 0;

  /// Miss path behind ServingView::Execute, for a view this backend pinned.
  virtual ExecuteOutcome Execute(
      ServingView& view, uint32_t k, uint32_t tau, bool pad_with_zero_edges,
      std::chrono::steady_clock::time_point deadline) = 0;

  /// Folded into EsdQueryService::Health().
  virtual obs::HealthState Health() const = 0;
};

inline ExecuteOutcome ServingView::Execute(
    uint32_t k, uint32_t tau, bool pad_with_zero_edges,
    std::chrono::steady_clock::time_point deadline) {
  return backend->Execute(*this, k, tau, pad_with_zero_edges, deadline);
}

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

/// Serving over single engines: one fixed engine (generation 0 forever;
/// it must outlive the backend) or the provider's engine of the moment
/// (generation = its epoch). Owns the FrozenEsdIndex fast path: the slab
/// binary search runs once per distinct tau in a batch, and slab scan and
/// zero-edge padding run under separate clocks.
class EngineBackend final : public ServingBackend {
 public:
  explicit EngineBackend(const core::EsdQueryEngine& engine);
  explicit EngineBackend(EpochEngineProvider provider);

  ServingView Pin() override;
  ExecuteOutcome Execute(
      ServingView& view, uint32_t k, uint32_t tau, bool pad_with_zero_edges,
      std::chrono::steady_clock::time_point deadline) override;
  obs::HealthState Health() const override { return obs::HealthState::kOk; }

 private:
  /// Empty for a fixed engine.
  const EpochEngineProvider provider_;
  /// The fixed engine, held without ownership, at epoch 0.
  const PinnedEngine fixed_;
};

}  // namespace esd::serve

#endif  // ESD_SERVE_SERVING_BACKEND_H_
