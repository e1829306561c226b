#ifndef ESD_SHARD_SHARDED_ENGINE_H_
#define ESD_SHARD_SHARDED_ENGINE_H_

/// Sharded serving engine with per-shard fault domains.
///
/// The fleet hash-partitions edge *ownership* across N shards
/// (partition.h), and each shard runs its own complete fault domain: a
/// private LiveEsdIndex with its own WAL directory, snapshot, epoch
/// lifecycle, retry/breaker posture, and fail-point site names
/// ("wal.append.shard2"). A torn WAL, ENOSPC, or corrupt snapshot
/// quarantines exactly one shard; the other N-1 keep serving.
///
/// Write path — broadcast: every shard's writer maintains the FULL graph
/// (ESD scores depend on whole ego networks, so a partial graph would
/// score its own edges wrong; replicating write work is the price of
/// serving exact scores from a partition). An engine-level in-memory
/// journal with per-shard applied watermarks lets a shard that rejected
/// writes while read-only catch back up through its normal typed apply
/// path once it heals; a shard that falls further behind than the journal
/// bound is quarantined ("resync required").
///
/// Read path — partitioned: each shard's published epochs are masked to
/// its owned edges (LiveOptions::serve_filter -> core::FilterFrozenIndex),
/// so serving memory is split ~1/N per shard while the edge-id slot layout
/// stays identical across shards. Execute() scatters one slab cursor per
/// healthy shard and k-way merges heads in canonical (score desc, edge id
/// asc) order, never draining a shard past its contribution — the
/// early-exit bound: at most k consumed entries plus one peeked head per
/// shard. Because a shard's filtered image reports exactly the global
/// score for each owned edge, the merge over all-healthy shards
/// reproduces the unsharded canonical answer bit for bit.
///
/// Degradation policy (the classification Counts()/Execute() stamp):
///   ok        — up, health kOk, caught up to the fleet write watermark;
///               included in the merge.
///   degraded  — alive but excluded: read-only (WAL dead), refreeze
///               breaker open, or behind the write watermark. Its data
///               may be stale, so partial answers skip it rather than
///               serve wrong freshness as truth.
///   down      — quarantined at open, catch-up overflow, or tripped by
///               the query stall breaker (consecutive slow shard probes
///               open it; it cools down and re-closes lazily).
/// Queries never block on the write path: classification reads atomics,
/// and a shard mid-heal-probe is simply counted degraded this round.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/frozen_index.h"
#include "core/scorer.h"
#include "fault/retry.h"
#include "graph/graph.h"
#include "live/live_index.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "serve/serving_backend.h"

namespace esd::shard {

/// Configuration of a sharded engine. Per-shard LiveOptions are derived
/// from this: shard i lives in `<dir>/shard-<i>/` with fail-point suffix
/// ".shard<i>".
struct ShardedOptions {
  uint32_t num_shards = 4;  ///< clamped to >= 1
  /// Fleet root directory (live mode). Empty selects static mode: shards
  /// are filtered frozen images of one bulk build, writes rejected typed.
  std::string dir;
  core::ScorerKind scorer = core::ScorerKind::kEsd;
  uint64_t refreeze_every = 256;
  bool fsync_on_batch = true;
  graph::VertexId max_vertex_id = (1u << 22);
  unsigned pool_threads = 2;  ///< per shard (refreeze pool)
  obs::MetricRegistry* registry = nullptr;  ///< null = Global()
  fault::RetryPolicy wal_retry;
  std::chrono::milliseconds heal_retry_interval{50};
  int refreeze_breaker_threshold = 3;
  std::chrono::milliseconds refreeze_breaker_cooldown{100};
  /// Query stall breaker: a shard whose scatter probe takes longer than
  /// `stall_threshold` on `stall_breaker_trips` consecutive queries is
  /// counted down (excluded, fail-point not evaluated) until the cooldown
  /// elapses. This is what keeps one stalled shard from dragging every
  /// query to the deadline.
  std::chrono::microseconds stall_threshold{100000};
  int stall_breaker_trips = 2;
  std::chrono::milliseconds stall_breaker_cooldown{500};
  /// Catch-up journal bound: a shard more than this many updates behind
  /// the fleet watermark is quarantined instead of buffered forever.
  size_t max_catchup_lag = 65536;
};

/// Introspection snapshot of one shard (the STATS / chaos-test view).
struct ShardStatus {
  uint32_t id = 0;
  std::string state;        ///< "ok" | "degraded" | "down"
  std::string down_reason;  ///< non-empty when down (not for stall trips)
  obs::HealthState health = obs::HealthState::kOk;
  uint64_t epoch = 0;            ///< published epoch id (live mode)
  uint64_t wal_applied_seq = 0;  ///< shard WAL watermark (live mode)
  uint64_t journal_applied = 0;  ///< fleet-journal updates applied
  uint64_t journal_lag = 0;      ///< fleet watermark - journal_applied
  uint64_t queries = 0;          ///< merges this shard contributed to
  uint64_t drained = 0;          ///< slab entries drained from this shard
  uint64_t stall_trips = 0;
  uint64_t replayed = 0;  ///< journal updates replayed while catching up
};

class ShardedQueryEngine final : public serve::ServingBackend {
 public:
  /// Live mode: opens (and recovers) one LiveEsdIndex per shard under
  /// `options.dir`. A shard whose open fails — torn WAL beyond repair,
  /// corrupt snapshot, filesystem error — is quarantined, not fatal; the
  /// engine opens as long as at least one shard does (*error set and null
  /// returned only when every shard fails). Shards that recovered to an
  /// older WAL watermark than the fleet's newest are quarantined as stale
  /// ("resync required") so the merge never mixes recovery torn-points.
  static std::unique_ptr<ShardedQueryEngine> Open(
      const graph::Graph& bootstrap, const ShardedOptions& options,
      std::string* error);

  /// Static mode: one bulk build of `g`, filtered per shard. No WAL, no
  /// journal; writes return kDegraded typed. (Benchmarks and the frozen
  /// server path use this to exercise the scatter-gather merge alone.)
  static std::unique_ptr<ShardedQueryEngine> BuildStatic(
      const graph::Graph& g, const ShardedOptions& options);

  ~ShardedQueryEngine() override;

  // ---- serve::ServingBackend ----------------------------------------------
  /// Pins the fleet generation (the view's cache key) and tally. Never
  /// blocks on the write path.
  serve::ServingView Pin() override;
  serve::ExecuteOutcome Execute(
      serve::ServingView& view, uint32_t k, uint32_t tau,
      bool pad_with_zero_edges,
      std::chrono::steady_clock::time_point deadline) override;
  /// Worst-shard health: any shard down or degraded degrades the fleet
  /// view (partial answers), all-ok is ok.
  obs::HealthState Health() const override;

  // ---- Read path ----------------------------------------------------------

  /// Monotone serving generation: bumps whenever any shard's published
  /// epoch, health, or up/down state changes. One generation names one
  /// immutable (epoch vector, fleet state) image, so cached answers are
  /// invalidated by any shard-level event, including heals.
  uint64_t Generation();

  /// Current fleet tally (same classification Execute stamps).
  serve::ShardCounts Counts();

  /// Scatter-gather top-k over the healthy shards. Returns when the merge
  /// finishes or `deadline` passes, whichever is first.
  serve::ShardedOutcome Execute(
      uint32_t k, uint32_t tau, bool pad_with_zero_edges,
      std::chrono::steady_clock::time_point deadline);

  // ---- Write path (live mode) ---------------------------------------------

  /// Broadcasts the batch: journal first, then every up shard catches up
  /// through its own typed apply path (WAL append + fsync + maintenance).
  /// kOk when at least one shard made the batch durable (the message
  /// notes laggards); kDegraded when no shard could accept it (it stays
  /// journaled for replay after a heal); kBounds rejects the whole batch
  /// before any shard is touched. Static engines reject kDegraded.
  live::ApplyResult ApplyBatchTyped(std::span<const live::LiveUpdate> updates);

  /// Drives heal probes + journal replay on shards that are behind,
  /// without submitting new writes (chaos tests and background pokes).
  void CatchUp();

  /// Checkpoints every up shard; false (with *error naming the shards)
  /// if any failed. Down shards are skipped, not failures.
  bool Checkpoint(std::string* error);

  /// Synchronously publishes fresh epochs on every up shard, so all
  /// serve filters reflect the same write watermark — the quiesced state
  /// exact-parity tests compare against. True when all up shards froze.
  bool RefreezeAll();

  // ---- Introspection ------------------------------------------------------
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  bool live_mode() const { return live_mode_; }
  std::vector<ShardStatus> Status() const;

  /// Sum of the currently published per-shard serving images — the
  /// partitioned counterpart of one engine's MemoryBytes().
  uint64_t MemoryBytes() const;

  /// Pushes esd_shard_* gauges into the registry (counters are maintained
  /// at event time).
  void ExportMetrics() const;

 private:
  enum class ShardClass : uint8_t { kOk = 0, kDegraded = 1, kDown = 2 };

  struct Shard {
    uint32_t id = 0;
    std::string query_site;  ///< "shard.query.<id>"
    std::unique_ptr<live::LiveEsdIndex> live;          // live mode
    std::shared_ptr<const core::FrozenEsdIndex> frozen;  // static mode

    std::atomic<bool> down{false};
    std::string down_reason;  // guarded by state_mu_

    /// Fleet-journal updates applied to this shard (not WAL seq).
    std::atomic<uint64_t> applied{0};

    // Stall breaker (guarded by state_mu_).
    int consecutive_slow = 0;
    bool tripped = false;
    std::chrono::steady_clock::time_point tripped_until{};

    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> drained{0};
    std::atomic<uint64_t> stall_trips{0};
    std::atomic<uint64_t> replayed{0};
  };

  explicit ShardedQueryEngine(const ShardedOptions& options, bool live_mode);

  ShardClass Classify(const Shard& s,
                      std::chrono::steady_clock::time_point now) const;
  /// Breaker bookkeeping after one scatter probe; true if the shard may
  /// contribute this round (a probe error excludes it immediately).
  bool NoteProbe(Shard& s, std::chrono::nanoseconds elapsed, bool error);
  void MarkDown(Shard& s, std::string reason);

  /// Replays journal into one shard until caught up (write_mu_ held).
  /// Updates below `fresh_base` — the fleet watermark before the current
  /// broadcast, i.e. work the shard missed earlier — count as replayed.
  void CatchUpShardLocked(Shard& s, uint64_t fresh_base);
  void CatchUpAllLocked(uint64_t fresh_base);  // write_mu_ held
  void TrimJournalLocked();                    // write_mu_ held

  ShardedOptions options_;
  const bool live_mode_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Serializes the broadcast write path. Never taken by Execute/Counts/
  /// Generation — the reader side runs on atomics and state_mu_ only.
  mutable std::mutex write_mu_;
  std::deque<live::LiveUpdate> journal_;  // guarded by write_mu_
  uint64_t journal_base_ = 0;             // guarded by write_mu_
  std::atomic<uint64_t> journal_end_{0};  ///< fleet write watermark

  /// Guards down_reason and the stall-breaker fields; held briefly.
  mutable std::mutex state_mu_;

  /// Generation fingerprint: bumps the monotone counter whenever the
  /// (epoch vector, classification vector) image changes.
  mutable std::mutex gen_mu_;
  uint64_t generation_ = 1;   // guarded by gen_mu_
  uint64_t last_fp_ = 0;      // guarded by gen_mu_

  obs::MetricRegistry& reg_;
  obs::Counter& stall_trips_total_;
  obs::Counter& quarantined_total_;
  obs::Counter& replayed_total_;
};

}  // namespace esd::shard

#endif  // ESD_SHARD_SHARDED_ENGINE_H_
