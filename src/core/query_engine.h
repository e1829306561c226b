#ifndef ESD_CORE_QUERY_ENGINE_H_
#define ESD_CORE_QUERY_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/online_topk.h"
#include "core/scorer.h"
#include "core/topk_result.h"
#include "graph/graph.h"

namespace esd::obs {
class MetricRegistry;
}  // namespace esd::obs

namespace esd::core {

/// One read of an engine's lifetime work counters. Which fields move
/// depends on the engine: the index engines drive slab_searches /
/// entries_scanned, the online adapter drives heap_pops /
/// exact_computations / zero_bound_skips. Fields an engine doesn't track
/// stay 0.
struct EngineCounters {
  uint64_t queries = 0;            ///< Query() calls answered
  uint64_t slab_searches = 0;      ///< H-list / slab binary searches run
  uint64_t entries_scanned = 0;    ///< index entries read to build answers
  uint64_t heap_pops = 0;          ///< online: priority-queue pops
  uint64_t exact_computations = 0; ///< online: exact ego-network BFS runs
  uint64_t zero_bound_skips = 0;   ///< online: candidates certified bound=0
};

/// The atomic home of EngineCounters inside an engine. Lives in otherwise
/// const engines (recording from const query methods is the point), so
/// every field is mutable-friendly relaxed-atomic; copy/move copy the
/// current values, which keeps engines that rely on implicit copies/moves
/// (FrozenEsdIndex into unique_ptr, EsdIndex returned by value) movable
/// despite holding atomics.
class EngineCounterBlock {
 public:
  EngineCounterBlock() = default;
  EngineCounterBlock(const EngineCounterBlock& other) { CopyFrom(other); }
  EngineCounterBlock& operator=(const EngineCounterBlock& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  void AddQuery() const { queries_.fetch_add(1, std::memory_order_relaxed); }
  void AddSlabSearch(uint64_t n = 1) const {
    slab_searches_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddEntriesScanned(uint64_t n) const {
    entries_scanned_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddOnlineStats(const OnlineStats& s) const {
    heap_pops_.fetch_add(s.heap_pops, std::memory_order_relaxed);
    exact_computations_.fetch_add(s.exact_computations,
                                  std::memory_order_relaxed);
    zero_bound_skips_.fetch_add(s.zero_bound_skips,
                                std::memory_order_relaxed);
  }

  EngineCounters Snap() const {
    EngineCounters c;
    c.queries = queries_.load(std::memory_order_relaxed);
    c.slab_searches = slab_searches_.load(std::memory_order_relaxed);
    c.entries_scanned = entries_scanned_.load(std::memory_order_relaxed);
    c.heap_pops = heap_pops_.load(std::memory_order_relaxed);
    c.exact_computations =
        exact_computations_.load(std::memory_order_relaxed);
    c.zero_bound_skips = zero_bound_skips_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  void CopyFrom(const EngineCounterBlock& other) {
    const EngineCounters c = other.Snap();
    queries_.store(c.queries, std::memory_order_relaxed);
    slab_searches_.store(c.slab_searches, std::memory_order_relaxed);
    entries_scanned_.store(c.entries_scanned, std::memory_order_relaxed);
    heap_pops_.store(c.heap_pops, std::memory_order_relaxed);
    exact_computations_.store(c.exact_computations,
                              std::memory_order_relaxed);
    zero_bound_skips_.store(c.zero_bound_skips, std::memory_order_relaxed);
  }

  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> slab_searches_{0};
  mutable std::atomic<uint64_t> entries_scanned_{0};
  mutable std::atomic<uint64_t> heap_pops_{0};
  mutable std::atomic<uint64_t> exact_computations_{0};
  mutable std::atomic<uint64_t> zero_bound_skips_{0};
};

/// The serving-layer contract every top-k ESD engine implements.
///
/// Four engines exist:
///   * EsdIndex        — the paper's treap-backed index ("treap"), also the
///                       mutation substrate of the maintenance algorithms;
///   * FrozenEsdIndex  — an immutable CSR-slab image of the same index
///                       ("frozen"), the read-optimized serving layer;
///   * DynamicEsdIndex — the maintained index ("dynamic"), delegating to its
///                       internal EsdIndex;
///   * OnlineQueryEngine — an index-free adapter over the online BFS
///                       algorithms ("online"), for one-shot workloads.
///
/// Shared semantics (engine-parity tests rely on these exactly):
///   * Query(k, 0) and Query(0, tau) are empty.
///   * When fewer than k edges have positive score and padding is on, the
///     remainder is filled with zero-score live edges in ascending edge-id
///     order, skipping edges already reported — a documented deterministic
///     order, identical across the index-backed engines. So
///     Query(UINT32_MAX, tau) returns every live edge exactly once, with
///     its score.
///
/// Thread safety: every method of this interface is const and must be safe
/// to call concurrently from any number of threads as long as no thread
/// mutates the engine (or, for the online adapters, the borrowed graph)
/// during the calls. The serving layer (serve::EsdQueryService) relies on
/// exactly this contract to share one engine across its worker pool;
/// FrozenEsdIndex is immutable after construction and is the engine meant
/// to be shared. Mutating engines (EsdIndex under maintenance,
/// DynamicEsdIndex) require external synchronization between writes and
/// any concurrent reads.
class EsdQueryEngine {
 public:
  virtual ~EsdQueryEngine() = default;

  /// Top-k structural diversity query at threshold `tau`.
  virtual TopKResult Query(uint32_t k, uint32_t tau,
                           bool pad_with_zero_edges = true) const = 0;

  /// Score of edge `e` (a dense id of this engine's snapshot) at `tau`.
  virtual uint32_t ScoreOf(graph::EdgeId e, uint32_t tau) const = 0;

  /// Approximate resident bytes of the serving structure (0 for the
  /// index-free online adapter).
  virtual uint64_t MemoryBytes() const = 0;

  /// Stable engine name ("treap", "frozen", "dynamic", "online", ...), the
  /// key used by the CLI/bench engine selectors and the JSON bench output.
  virtual std::string_view EngineName() const = 0;

  /// Lifetime work counters (see EngineCounters). Engines that don't
  /// instrument return all zeros. Safe concurrently with queries.
  virtual EngineCounters Counters() const { return {}; }

  /// Which diversity definition this engine's scores follow (see
  /// core/scorer.h). The historical engines predate the scorer seam and
  /// default to ESD; scorer-parameterized engines override.
  virtual ScorerKind Scorer() const { return ScorerKind::kEsd; }

 protected:
  EsdQueryEngine() = default;
  EsdQueryEngine(const EsdQueryEngine&) = default;
  EsdQueryEngine& operator=(const EsdQueryEngine&) = default;
  EsdQueryEngine(EsdQueryEngine&&) = default;
  EsdQueryEngine& operator=(EsdQueryEngine&&) = default;
};

/// Index-free engine: answers every call by running the online algorithms
/// against a borrowed graph (which must outlive the adapter). Query is the
/// dequeue-twice OnlineTopK.
class OnlineQueryEngine final : public EsdQueryEngine {
 public:
  explicit OnlineQueryEngine(
      const graph::Graph& g,
      UpperBoundRule rule = UpperBoundRule::kCommonNeighbor)
      : graph_(g), rule_(rule) {}

  TopKResult Query(uint32_t k, uint32_t tau,
                   bool pad_with_zero_edges = true) const override;
  uint32_t ScoreOf(graph::EdgeId e, uint32_t tau) const override;
  uint64_t MemoryBytes() const override { return 0; }
  std::string_view EngineName() const override {
    return rule_ == UpperBoundRule::kCommonNeighbor ? "online"
                                                    : "online-mindeg";
  }
  /// Prune counters accumulated across Query() calls (heap_pops,
  /// exact_computations, zero_bound_skips): the OnlineStats of every
  /// dequeue-twice run, reachable through the engine interface so
  /// esd_cli --engine online can print pruning power.
  EngineCounters Counters() const override { return counters_.Snap(); }

 private:
  const graph::Graph& graph_;
  UpperBoundRule rule_;
  EngineCounterBlock counters_;
};

/// Index-free engine for an arbitrary scorer: answers every call by scoring
/// edges of a borrowed graph (which must outlive the adapter) through the
/// scorer's single-edge recompute hook. The reference implementation the
/// scorer parity tests compare the indexed engines against; full-scan, so
/// meant for correctness work and one-shot workloads, not serving. Follows
/// the shared engine semantics exactly (zero-padding order, empty Query on
/// k == 0 or tau == 0).
class ScorerOnlineEngine final : public EsdQueryEngine {
 public:
  ScorerOnlineEngine(const graph::Graph& g, const DiversityScorer& scorer)
      : graph_(g),
        scorer_(scorer),
        name_("online-" + std::string(scorer.Name())) {}

  TopKResult Query(uint32_t k, uint32_t tau,
                   bool pad_with_zero_edges = true) const override;
  uint32_t ScoreOf(graph::EdgeId e, uint32_t tau) const override;
  uint64_t MemoryBytes() const override { return 0; }
  std::string_view EngineName() const override { return name_; }
  ScorerKind Scorer() const override { return scorer_.Kind(); }
  EngineCounters Counters() const override { return counters_.Snap(); }

 private:
  /// Score of every edge at `tau`, by EdgeId.
  std::vector<uint32_t> AllScores(uint32_t tau) const;

  const graph::Graph& graph_;
  const DiversityScorer& scorer_;
  std::string name_;  // EngineName() returns a view; owned storage
  EngineCounterBlock counters_;
};

/// Engine names accepted by BuildQueryEngine, in presentation order.
std::vector<std::string> QueryEngineNames();

/// Builds the engine registered under `name` ("treap", "frozen", "dynamic",
/// "online", "online-mindeg") for graph `g`, scoring edges by `scorer`.
/// The index engines go through BuildIndex / BuildFrozenIndex (the
/// scorer's bulk hook) and snapshot `g`. The online engines borrow `g` (it
/// must outlive the result): for ESD they are the paper's pruned
/// OnlineBFS; any other scorer has no upper-bound pruning rule, so both
/// names map to the ScorerOnlineEngine full scan. Returns nullptr and sets
/// *error on an unknown name.
std::unique_ptr<EsdQueryEngine> BuildQueryEngine(
    const graph::Graph& g, std::string_view name,
    const DiversityScorer& scorer, std::string* error);

/// Publishes engine.Counters() as gauges `<prefix><field>` (default
/// esd_engine_queries, esd_engine_heap_pops, ...) on `registry`, so a
/// registry scrape (esd_server METRICS, esd_cli --metrics) carries the
/// engine's work counters. Gauges, not counters: each call overwrites
/// with the engine's current lifetime totals.
void ExportEngineCounters(const EsdQueryEngine& engine,
                          obs::MetricRegistry* registry,
                          std::string_view prefix = "esd_engine_");

}  // namespace esd::core

#endif  // ESD_CORE_QUERY_ENGINE_H_
