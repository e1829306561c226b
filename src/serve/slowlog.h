#ifndef ESD_SERVE_SLOWLOG_H_
#define ESD_SERVE_SLOWLOG_H_

/// Always-on slow-query ring log: retains the N worst requests (by total
/// latency) of the trailing window, each with its full per-stage
/// attribution, tau/k/pad, scorer, epoch, cache outcome, and the health
/// state sampled at admission — the forensic record esd_server's SLOWLOG
/// command serves when someone asks "why was *this* query slow."
///
/// Lock-striped: requests hash by request id onto `stripes` independent
/// min-heaps (each bounded at `capacity` entries), so concurrent serving
/// workers almost never contend on the same mutex. Snapshot() merges the
/// stripes, drops entries older than the window, and returns the global
/// worst-first list. Recording is O(log capacity) under one stripe mutex
/// with no allocation beyond the bounded heap — and once a stripe is
/// saturated, requests that can't beat its cheapest retained entry are
/// rejected on a lock-free fast path (two relaxed loads, no mutex, no
/// expiry scan), which is what keeps the log cheap enough to stay on in
/// production (and it works in both ESD_OBS modes).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/scorer.h"
#include "obs/health.h"
#include "obs/request_context.h"

namespace esd::serve {

/// One retained slow request. Times in microseconds; stage_us is indexed
/// by obs::Stage.
struct SlowQueryRecord {
  uint64_t request_id = 0;
  uint64_t epoch = 0;
  uint32_t tau = 0;
  uint32_t k = 0;
  bool pad_with_zero_edges = true;
  bool deadline_missed = false;
  core::ScorerKind scorer = core::ScorerKind::kEsd;
  obs::CacheOutcome cache = obs::CacheOutcome::kNone;
  obs::HealthState health = obs::HealthState::kOk;
  double queue_us = 0;
  double exec_us = 0;
  double total_us = 0;
  double stage_us[obs::kNumStages] = {};
  /// Steady-clock nanos when recorded; 0 lets Record() stamp the current
  /// time (tests inject old stamps to exercise window expiry).
  uint64_t recorded_ns = 0;
};

class SlowQueryLog {
 public:
  struct Options {
    /// Worst entries retained per window, across all stripes.
    size_t capacity = 32;
    /// Trailing window; entries age out at Record() and Snapshot() time.
    std::chrono::seconds window{60};
    /// Independent locks; rounded up to >= 1. Each stripe holds up to
    /// `capacity` entries so a hot stripe alone can cover the budget.
    size_t stripes = 8;
  };

  SlowQueryLog() : SlowQueryLog(Options{}) {}
  explicit SlowQueryLog(const Options& options);

  /// Considers one finished request for retention (always cheap; drops it
  /// immediately when it can't beat the stripe's current worst set).
  void Record(SlowQueryRecord record);

  /// The current worst requests, most expensive first, capped at
  /// min(n, capacity); n == 0 means the full capacity.
  std::vector<SlowQueryRecord> Worst(size_t n = 0) const;

  /// Worst(n) as JSON lines (one object per record, worst first).
  std::vector<std::string> JsonLines(size_t n = 0) const;

  /// One record as a JSON object (stable schema, also used by tests).
  static std::string ToJson(const SlowQueryRecord& record, uint64_t now_ns);

  /// Total requests offered to Record() since construction.
  uint64_t recorded() const {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.recorded.load(std::memory_order_relaxed);
    }
    return total;
  }

  size_t capacity() const { return capacity_; }
  std::chrono::seconds window() const { return window_; }

  void Clear();

 private:
  /// Cache-line aligned so one worker's hot stripe never false-shares
  /// with a neighbour's.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    /// Min-heap on total_us (cheapest retained entry on top), bounded at
    /// capacity_ — eviction compares against the cheapest in O(1).
    std::vector<SlowQueryRecord> heap;
    /// Fast-reject hints, refreshed under the mutex after every mutation:
    /// floor_us is the cheapest retained total once the stripe is full
    /// (-1 while it isn't — everything must take the lock), oldest_ns the
    /// oldest retained stamp. Record() rejects without locking only when
    /// the candidate can't beat the floor AND nothing can have expired.
    std::atomic<double> floor_us{-1.0};
    std::atomic<uint64_t> oldest_ns{0};
    /// Requests offered to this stripe (fast-rejected ones included).
    std::atomic<uint64_t> recorded{0};
  };

  void ExpireLocked(Stripe& stripe, uint64_t now_ns) const;
  void RefreshHintsLocked(Stripe& stripe) const;

  const size_t capacity_;
  const std::chrono::seconds window_;
  const uint64_t window_ns_;
  std::vector<Stripe> stripes_;
};

}  // namespace esd::serve

#endif  // ESD_SERVE_SLOWLOG_H_
