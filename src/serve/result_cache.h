#ifndef ESD_SERVE_RESULT_CACHE_H_
#define ESD_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/topk_result.h"
#include "obs/metrics.h"

namespace esd::serve {

/// Epoch-keyed top-k result cache — the serving layer's answer to the
/// observation that within one published epoch every (tau, k, pad) answer
/// is immutable, and real traffic (serve_load's Zipfian mix) concentrates
/// on a handful of parameter combinations. A hit turns the common case
/// into a hash lookup plus a result copy; the slab is never touched.
///
/// Correctness rests on one invariant, repaired by the seq-guarded
/// LiveEsdIndex::Publish: epoch ids are monotone in applied_seq,
/// so a given epoch id names exactly one immutable index image. The cache
/// keys whole generations on that id:
///
///   * One Generation = one epoch's worth of entries, sharded (per-shard
///     mutex + LRU + hash map), behind a shared_ptr the readers pin.
///   * Epoch swap = O(1) whole-generation invalidation: swap in a fresh
///     Generation and drop the pointer — no tombstones, no per-entry
///     walk. In-flight readers still pinning the old generation finish
///     harmlessly against it (their batch pinned the matching old engine,
///     so old-generation answers are still correct for them).
///   * A lookup carrying an epoch NEWER than the current generation
///     rotates first (the notification path via OnEpochChange does the
///     same proactively); a lookup carrying an OLDER epoch — a batch that
///     pinned its engine just before a swap — bypasses: it must neither
///     hit the new generation nor pollute it with stale answers.
///
/// Lock discipline mirrors LiveEsdIndex's publication lock: the
/// generation pointer hides behind gen_mu_ whose critical sections are
/// O(1) shared_ptr copies/swaps, so lookups (which then lock only their
/// one shard) never contend with the writer's epoch bump, and the bump
/// never waits on a resident lookup.
///
/// Memory is bounded twice per shard — entry count and bytes — with LRU
/// eviction inside the shard. A result too large for its shard's byte
/// budget is simply not cached.
class ResultCache {
 public:
  struct Options {
    /// Total entry budget across shards (>= 1 enforced per shard).
    size_t max_entries = 1 << 16;
    /// Total byte budget across shards for cached results (0 = entry
    /// bound only).
    size_t max_bytes = 32u << 20;
    /// Lock stripes; rounded up to a power of two, at least 1.
    size_t shards = 16;
  };

  /// Point-in-time view of the cache (Snap walks the current generation's
  /// shards; counters are lifetime totals across generations).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;     ///< includes stale-epoch bypasses
    uint64_t bypasses = 0;   ///< lookups from an already-retired epoch
    uint64_t evictions = 0;  ///< entries dropped by LRU budget enforcement
    uint64_t generations = 0;  ///< rotations performed (initial gen incl.)
    uint64_t epoch = 0;        ///< epoch the current generation serves
    size_t entries = 0;        ///< entries resident in the current gen
    uint64_t bytes = 0;        ///< bytes resident in the current gen
    double hit_rate = 0;       ///< hits / (hits + misses), 0 when idle
  };

  /// Registers the esd_cache_{hits,misses,evictions,bytes,hit_rate}
  /// metrics on `registry` (which must outlive the cache).
  ResultCache(const Options& options, obs::MetricRegistry& registry);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks up (tau, k, pad) in the generation serving `epoch`. On hit,
  /// copies the cached answer into *out and refreshes its LRU position.
  /// A newer epoch rotates the generation first (and misses); an older
  /// epoch bypasses (misses without rotating).
  bool Lookup(uint64_t epoch, uint32_t tau, uint32_t k, bool pad,
              core::TopKResult* out);

  /// Inserts an answer computed against `epoch`'s engine. Dropped when the
  /// generation has moved past `epoch` (a stale insert must never land in
  /// a newer generation) or when the result exceeds the shard byte budget.
  void Insert(uint64_t epoch, uint32_t tau, uint32_t k, bool pad,
              const core::TopKResult& result);

  /// Proactive generation rotation, wired to the live index's epoch
  /// listener so the swap happens at publish time rather than on the
  /// first post-swap lookup. Older/equal epochs are no-ops.
  void OnEpochChange(uint64_t epoch);

  Stats Snap() const;

 private:
  struct CacheKey {
    uint32_t tau = 0;
    uint32_t k = 0;
    uint8_t pad = 0;

    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const {
      // splitmix64 finalizer over the packed key: tau and k each get 32
      // bits; pad flips the top bit pre-mix.
      uint64_t x = (static_cast<uint64_t>(key.tau) << 32) | key.k;
      if (key.pad != 0) x ^= uint64_t{1} << 63;
      x += 0x9E3779B97F4A7C15ull;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      return static_cast<size_t>(x ^ (x >> 31));
    }
  };

  struct Entry {
    CacheKey key;
    core::TopKResult result;
    size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        map;
    size_t bytes = 0;
  };

  /// One epoch's entries. Immutable epoch id; shards mutate under their
  /// own locks. Retired generations (swapped out by a rotation) refuse
  /// late inserts so the byte gauge tracks only the live generation.
  struct Generation {
    explicit Generation(uint64_t e, size_t shard_count)
        : epoch(e), shards(shard_count) {}
    const uint64_t epoch;
    std::vector<Shard> shards;
    std::atomic<bool> retired{false};
    /// Sum of shard byte counts, maintained atomically so the gauge can be
    /// refreshed without sweeping every shard lock.
    std::atomic<uint64_t> total_bytes{0};
  };

  /// Estimated resident size of one cached entry (list node + map slot +
  /// the result payload).
  static size_t EntryBytes(const core::TopKResult& result) {
    return sizeof(Entry) + kEntryOverheadBytes +
           result.size() * sizeof(core::ScoredEdge);
  }
  static constexpr size_t kEntryOverheadBytes = 64;

  std::shared_ptr<Generation> Pin() const {
    std::lock_guard<std::mutex> lock(gen_mu_);
    return gen_;
  }

  /// Swaps in a fresh generation for `epoch` if it is newer than the
  /// current one. Returns the generation now serving (for callers that
  /// continue into it).
  std::shared_ptr<Generation> Rotate(uint64_t epoch);

  Shard& ShardFor(Generation& gen, const CacheKey& key) const {
    return gen.shards[CacheKeyHash{}(key) & (num_shards_ - 1)];
  }

  /// Evicts from the shard's LRU tail until both budgets hold. Shard lock
  /// held by the caller.
  void EnforceBudgets(Generation& gen, Shard& shard);

  void RecordLookup(bool hit);

  size_t num_shards_;        // power of two
  size_t shard_entry_budget_;
  size_t shard_byte_budget_;  // SIZE_MAX when max_bytes == 0

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Gauge& bytes_gauge_;
  obs::Gauge& hit_rate_;
  std::atomic<uint64_t> bypasses_{0};
  std::atomic<uint64_t> generations_{1};

  /// Generation pointer lock — O(1) critical sections only (copy or
  /// swap), the reader/writer non-contention guarantee.
  mutable std::mutex gen_mu_;
  std::shared_ptr<Generation> gen_;
};

}  // namespace esd::serve

#endif  // ESD_SERVE_RESULT_CACHE_H_
