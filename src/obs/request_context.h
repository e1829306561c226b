#ifndef ESD_OBS_REQUEST_CONTEXT_H_
#define ESD_OBS_REQUEST_CONTEXT_H_

/// Request-scoped telemetry context: a 64-bit request id minted at
/// admission plus a per-stage attribution breakdown, carried with the
/// request through tau-batching, the result cache, slab execution, and the
/// reply. Plain data in both ESD_OBS modes — only span *recording* is
/// compiled out under -DESD_OBS=OFF (mirroring PhaseSeries): the stage
/// timestamps also feed registry histograms and the slow-query log, which
/// stay available in both modes.
///
/// The request id doubles as the trace id: every span a request emits
/// (req.queue_wait, req.slab_scan, ...) carries it in the Chrome trace's
/// args.rid, so one request's spans join across threads and batches even
/// when it was served inside a batch with other requests.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace esd::obs {

/// Where a request's wall time went, end to end. Values index the
/// RequestContext::stage_ns array and the esd_serve_stage_* histograms.
enum class Stage : uint8_t {
  kQueueWait = 0,     ///< admission -> the serving batch started draining
  kBatchFormation,    ///< batch start -> this request's turn (sort, pin,
                      ///< earlier requests of the same batch)
  kCacheLookup,       ///< intra-batch dedup probe + result-cache lookup
  kSlabScan,          ///< engine execution: slab prefix scan (or the whole
                      ///< engine query on non-frozen paths)
  kPaddingScan,       ///< zero-padding walk over live edges (deep k)
  kMerge,             ///< answer assembly: dedup/hit copy, cache insert
};

inline constexpr size_t kNumStages = 6;

constexpr const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kBatchFormation:
      return "batch_formation";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kSlabScan:
      return "slab_scan";
    case Stage::kPaddingScan:
      return "padding_scan";
    case Stage::kMerge:
      return "merge";
  }
  return "unknown";
}

/// Span names for per-request trace events, one per stage. Static storage
/// (the tracer ring stores the pointer), indexed like stage_ns.
constexpr const char* StageSpanName(Stage stage) {
  switch (stage) {
    case Stage::kQueueWait:
      return "req.queue_wait";
    case Stage::kBatchFormation:
      return "req.batch_formation";
    case Stage::kCacheLookup:
      return "req.cache_lookup";
    case Stage::kSlabScan:
      return "req.slab_scan";
    case Stage::kPaddingScan:
      return "req.padding_scan";
    case Stage::kMerge:
      return "req.merge";
  }
  return "req.unknown";
}

/// How the result cache (and intra-batch dedup ahead of it) disposed of a
/// request. kNone = executed with caching off or unavailable.
enum class CacheOutcome : uint8_t {
  kNone = 0,  ///< engine executed; no cache configured for this path
  kHit,       ///< answered from the epoch-keyed result cache
  kMiss,      ///< engine executed; answer inserted into the cache
  kDedup,     ///< copied from an identical request earlier in the batch
};

constexpr const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kNone:
      return "none";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kDedup:
      return "dedup";
  }
  return "unknown";
}

/// Per-request telemetry carried from Submit() to the response. Plain
/// copyable data; all mutation happens single-threaded (the admitting
/// thread, then exactly one serving worker).
struct RequestContext {
  /// Process-unique, never 0 once minted. Doubles as the trace id.
  uint64_t request_id = 0;
  /// Steady-clock nanos at admission (MonotonicNanos basis).
  uint64_t admit_ns = 0;
  /// Engine epoch the request was served from (0 for static engines) —
  /// the refreeze stamp for live serving.
  uint64_t epoch = 0;
  CacheOutcome cache = CacheOutcome::kNone;
  /// Wall nanos attributed to each stage; see Stage for semantics.
  /// queue_wait + batch_formation == the response's queue_us; the
  /// remaining stages partition exec_us.
  uint64_t stage_ns[kNumStages] = {};

  void Charge(Stage stage, uint64_t ns) {
    stage_ns[static_cast<size_t>(stage)] += ns;
  }
  uint64_t StageNanos(Stage stage) const {
    return stage_ns[static_cast<size_t>(stage)];
  }
  double StageMicros(Stage stage) const {
    return static_cast<double>(StageNanos(stage)) * 1e-3;
  }
  /// Sum over all stages — the attributed share of the request's total.
  uint64_t AttributedNanos() const {
    uint64_t total = 0;
    for (size_t i = 0; i < kNumStages; ++i) total += stage_ns[i];
    return total;
  }

  /// Mints the next process-unique request id (wait-free, starts at 1).
  static uint64_t MintId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
};

}  // namespace esd::obs

#endif  // ESD_OBS_REQUEST_CONTEXT_H_
