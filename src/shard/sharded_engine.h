#ifndef ESD_SHARD_SHARDED_ENGINE_H_
#define ESD_SHARD_SHARDED_ENGINE_H_

/// Sharded serving: read-side fault domains over one frozen image.
///
/// An edge's score depends on its whole ego network, and one update
/// touches every edge in it, so writes cannot be partitioned: a process
/// has one writer (a LiveEsdIndex: one WAL, one refreeze). The fleet
/// hash-partitions edge *ownership* across N shards (partition.h) on the
/// read side only. Every shard serves its slice of the same image — the
/// live index's current epoch, or one fixed built image in static mode —
/// and keeps its own query fail point ("shard.query.<i>"), stall breaker
/// and counters.
///
/// Execute() pins the image once and walks the tau slab once, in the
/// canonical (score desc, edge id asc) order, emitting each entry whose
/// owner shard is healthy this round, then pads from the same image. With
/// every shard healthy that is exactly the unsharded answer; with some
/// down it is that answer restricted to the healthy shards' edges.
///
/// Classification (what Counts()/Execute() stamp):
///   ok        — serving this round.
///   degraded  — never: every shard serves the writer's last good epoch,
///               so none is alive-but-stale. The count stays on the wire
///               and is always 0. Writer posture (read-only WAL, open
///               refreeze breaker) reaches readers through the live
///               index's own Health(), as it does unsharded.
///   down      — its query probe errored, or the stall breaker is open
///               (consecutive slow probes open it; it cools down and
///               re-closes lazily).
/// Queries never touch the write path: classification reads the breaker
/// state, and the image pin is one shared_ptr copy.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/frozen_index.h"
#include "graph/graph.h"
#include "live/live_index.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "serve/serving_backend.h"

namespace esd::shard {

/// Configuration of a sharded engine.
struct ShardedOptions {
  uint32_t num_shards = 4;  ///< clamped to >= 1
  obs::MetricRegistry* registry = nullptr;  ///< null = Global()
  /// Query stall breaker: a shard whose scatter probe takes longer than
  /// `stall_threshold` on `stall_breaker_trips` consecutive queries is
  /// counted down (excluded, fail-point not evaluated) until the cooldown
  /// elapses. This is what keeps one stalled shard from dragging every
  /// query to the deadline.
  std::chrono::microseconds stall_threshold{100000};
  int stall_breaker_trips = 2;
  std::chrono::milliseconds stall_breaker_cooldown{500};
};

/// Introspection snapshot of one shard (the SHARDS / chaos-test view).
struct ShardStatus {
  uint32_t id = 0;
  std::string state;      ///< "ok" | "down"
  uint64_t queries = 0;   ///< rounds this shard served in
  uint64_t drained = 0;   ///< slab entries it contributed to answers
  uint64_t stall_trips = 0;
};

class ShardedQueryEngine final : public serve::ServingBackend {
 public:
  /// Static mode: serves `image` (never null) for the engine's lifetime.
  ShardedQueryEngine(std::shared_ptr<const core::FrozenEsdIndex> image,
                     const ShardedOptions& options);

  /// Live mode: serves the current epoch of `live`, which must outlive
  /// the engine. The engine never writes.
  ShardedQueryEngine(const live::LiveEsdIndex& live,
                     const ShardedOptions& options);

  /// Static mode over a fresh ESD build of `g`.
  static std::unique_ptr<ShardedQueryEngine> BuildStatic(
      const graph::Graph& g, const ShardedOptions& options);

  ~ShardedQueryEngine() override;

  // ---- serve::ServingBackend ----------------------------------------------
  /// Pins the fleet generation (the view's cache key) and tally.
  serve::ServingView Pin() override;
  serve::ExecuteOutcome Execute(
      serve::ServingView& view, uint32_t k, uint32_t tau,
      bool pad_with_zero_edges,
      std::chrono::steady_clock::time_point deadline) override;
  /// Any shard down degrades the fleet view (partial answers); all-ok is
  /// ok.
  obs::HealthState Health() const override;

  // ---- Read path ----------------------------------------------------------

  /// Monotone serving generation: bumps whenever the served epoch or any
  /// shard's class changes, so cached answers are invalidated by both.
  uint64_t Generation();

  /// Current fleet tally (same classification Execute stamps).
  serve::ShardCounts Counts();

  /// Top-k over the healthy shards' slices of the current image. Returns
  /// when the walk finishes or `deadline` passes, whichever is first.
  serve::ShardedOutcome Execute(
      uint32_t k, uint32_t tau, bool pad_with_zero_edges,
      std::chrono::steady_clock::time_point deadline);

  // ---- Introspection ------------------------------------------------------
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// Epoch of the image served now (0 in static mode).
  uint64_t epoch() const;
  std::vector<ShardStatus> Status() const;

  /// Pushes esd_shard_* gauges into the registry (counters are maintained
  /// at event time).
  void ExportMetrics() const;

 private:
  struct Shard {
    uint32_t id = 0;
    std::string query_site;  ///< "shard.query.<id>"

    // Stall breaker (guarded by state_mu_).
    int consecutive_slow = 0;
    bool tripped = false;
    std::chrono::steady_clock::time_point tripped_until{};

    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> drained{0};
    std::atomic<uint64_t> stall_trips{0};
  };

  /// The served image and its epoch, pinned together.
  struct Image {
    std::shared_ptr<const core::FrozenEsdIndex> index;
    uint64_t epoch = 0;
  };

  ShardedQueryEngine(const ShardedOptions& options,
                     std::shared_ptr<const core::FrozenEsdIndex> image,
                     const live::LiveEsdIndex* live);

  Image Current() const;
  /// The tally of every shard's class now, and (*generation) the monotone
  /// generation of (epoch, per-shard class).
  serve::ShardCounts Classify(uint64_t epoch, uint64_t* generation);
  /// Execute over one pinned image, `slab` already looked up for `tau`.
  serve::ShardedOutcome Walk(const core::FrozenEsdIndex& image, size_t slab,
                             uint32_t k, uint32_t tau,
                             bool pad_with_zero_edges,
                             std::chrono::steady_clock::time_point deadline);
  /// False while the shard's stall breaker is open.
  bool Up(const Shard& s, std::chrono::steady_clock::time_point now) const;
  /// Breaker bookkeeping after one scatter probe; true if the shard may
  /// serve this round (a probe error excludes it immediately).
  bool NoteProbe(Shard& s, std::chrono::nanoseconds elapsed, bool error);

  ShardedOptions options_;
  const std::shared_ptr<const core::FrozenEsdIndex> image_;  // static mode
  const live::LiveEsdIndex* const live_;                     // live mode
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards the stall-breaker fields; held briefly.
  mutable std::mutex state_mu_;

  /// Generation fingerprint: bumps the monotone counter whenever the
  /// (epoch, per-shard class) image changes.
  std::mutex gen_mu_;
  uint64_t generation_ = 1;  // guarded by gen_mu_
  uint64_t last_fp_ = 0;     // guarded by gen_mu_

  obs::MetricRegistry& reg_;
  obs::Counter& stall_trips_total_;
};

}  // namespace esd::shard

#endif  // ESD_SHARD_SHARDED_ENGINE_H_
