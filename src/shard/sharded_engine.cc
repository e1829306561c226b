#include "shard/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "core/index_builder.h"
#include "fault/failpoint.h"
#include "obs/trace.h"
#include "shard/partition.h"

namespace esd::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// Marks a shard that does not serve this round in Walk's per-shard tally.
constexpr int64_t kExcluded = -1;

}  // namespace

ShardedQueryEngine::ShardedQueryEngine(
    std::shared_ptr<const core::FrozenEsdIndex> image,
    const ShardedOptions& options)
    : ShardedQueryEngine(options, std::move(image), nullptr) {}

ShardedQueryEngine::ShardedQueryEngine(const live::LiveEsdIndex& live,
                                       const ShardedOptions& options)
    : ShardedQueryEngine(options, nullptr, &live) {}

ShardedQueryEngine::ShardedQueryEngine(
    const ShardedOptions& options,
    std::shared_ptr<const core::FrozenEsdIndex> image,
    const live::LiveEsdIndex* live)
    : options_(options),
      image_(std::move(image)),
      live_(live),
      reg_(options.registry != nullptr ? *options.registry
                                       : obs::MetricRegistry::Global()),
      stall_trips_total_(reg_.GetCounter(
          "esd_shard_stall_trips_total",
          "Query stall breaker openings across all shards")) {
  options_.num_shards = std::max<uint32_t>(1, options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->id = i;
    s->query_site = "shard.query." + std::to_string(i);
    shards_.push_back(std::move(s));
  }
}

ShardedQueryEngine::~ShardedQueryEngine() = default;

std::unique_ptr<ShardedQueryEngine> ShardedQueryEngine::BuildStatic(
    const graph::Graph& g, const ShardedOptions& options) {
  return std::make_unique<ShardedQueryEngine>(
      std::make_shared<const core::FrozenEsdIndex>(core::BuildFrozenIndex(g)),
      options);
}

ShardedQueryEngine::Image ShardedQueryEngine::Current() const {
  if (live_ == nullptr) return {image_, 0};
  auto snap = live_->CurrentSnapshot();
  const core::FrozenEsdIndex* index = &snap->index;
  const uint64_t epoch = snap->epoch;
  return {std::shared_ptr<const core::FrozenEsdIndex>(std::move(snap), index),
          epoch};
}

uint64_t ShardedQueryEngine::epoch() const {
  return live_ == nullptr ? 0 : live_->CurrentSnapshot()->epoch;
}

// ---- Classification --------------------------------------------------------

bool ShardedQueryEngine::Up(const Shard& s, Clock::time_point now) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!s.tripped) return true;
  if (now < s.tripped_until) return false;
  // Cooldown elapsed: close the breaker lazily.
  Shard& mut = const_cast<Shard&>(s);
  mut.tripped = false;
  mut.consecutive_slow = 0;
  return true;
}

serve::ShardCounts ShardedQueryEngine::Classify(uint64_t epoch,
                                                uint64_t* generation) {
  const Clock::time_point now = Clock::now();
  serve::ShardCounts c;
  uint64_t fp = 14695981039346656037ull;  // FNV offset basis
  auto mix = [&fp](uint64_t v) {
    fp ^= v;
    fp *= 1099511628211ull;  // FNV prime
  };
  mix(epoch);
  for (const auto& sp : shards_) {
    const bool up = Up(*sp, now);
    ++(up ? c.ok : c.down);
    mix(up ? 0 : 1);
  }
  std::lock_guard<std::mutex> lock(gen_mu_);
  if (fp != last_fp_) {
    last_fp_ = fp;
    ++generation_;
  }
  *generation = generation_;
  return c;
}

serve::ShardCounts ShardedQueryEngine::Counts() {
  uint64_t generation = 0;
  return Classify(epoch(), &generation);
}

uint64_t ShardedQueryEngine::Generation() {
  uint64_t generation = 0;
  Classify(epoch(), &generation);
  return generation;
}

obs::HealthState ShardedQueryEngine::Health() const {
  const Clock::time_point now = Clock::now();
  for (const auto& sp : shards_) {
    if (!Up(*sp, now)) return obs::HealthState::kDegraded;
  }
  return obs::HealthState::kOk;
}

serve::ServingView ShardedQueryEngine::Pin() {
  Image image = Current();
  serve::ServingView view;
  view.shards = Classify(image.epoch, &view.generation);
  view.scorer = image.index->Scorer();
  view.backend = this;
  view.frozen = image.index.get();
  view.engine = std::move(image.index);
  return view;
}

// ---- Execute ---------------------------------------------------------------

bool ShardedQueryEngine::NoteProbe(Shard& s, std::chrono::nanoseconds elapsed,
                                   bool error) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto trip = [&] {
    s.tripped = true;
    s.tripped_until = Clock::now() + options_.stall_breaker_cooldown;
    s.consecutive_slow = 0;
    s.stall_trips.fetch_add(1, std::memory_order_relaxed);
    stall_trips_total_.Inc();
  };
  if (error) {
    trip();
    return false;
  }
  if (elapsed >= options_.stall_threshold) {
    if (++s.consecutive_slow >= options_.stall_breaker_trips) trip();
    // A merely slow shard still serves this round — the cost is already
    // paid; the breaker protects the *next* queries.
    return true;
  }
  s.consecutive_slow = 0;
  return true;
}

serve::ExecuteOutcome ShardedQueryEngine::Execute(
    serve::ServingView& view, uint32_t k, uint32_t tau,
    bool pad_with_zero_edges, Clock::time_point deadline) {
  if (tau != 0 && view.slab_tau != tau) {
    view.slab = view.frozen->FindSlab(tau);
    view.slab_tau = tau;
  }
  return Walk(*view.frozen, tau == 0 ? core::FrozenEsdIndex::kNoSlab : view.slab,
              k, tau, pad_with_zero_edges, deadline);
}

serve::ShardedOutcome ShardedQueryEngine::Execute(
    uint32_t k, uint32_t tau, bool pad_with_zero_edges,
    Clock::time_point deadline) {
  const Image image = Current();
  const size_t slab =
      tau == 0 ? core::FrozenEsdIndex::kNoSlab : image.index->FindSlab(tau);
  return Walk(*image.index, slab, k, tau, pad_with_zero_edges, deadline);
}

serve::ShardedOutcome ShardedQueryEngine::Walk(
    const core::FrozenEsdIndex& image, size_t slab, uint32_t k, uint32_t tau,
    bool pad_with_zero_edges, Clock::time_point deadline) {
  const Clock::time_point now = Clock::now();
  const uint32_t n = num_shards();
  serve::ShardedOutcome out;

  // Scatter probes: the injectable per-shard query edge. A stalled or
  // erroring shard is detected here, charged to its breaker, and (on
  // error) left out of this round. served[i] counts the entries shard i
  // contributes, or is kExcluded.
  static thread_local std::vector<int64_t> served;
  served.assign(n, kExcluded);
  auto& failpoints = fault::FailPointRegistry::Global();
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    if (!Up(s, now)) {
      ++out.shards.down;
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    const fault::FaultHit hit = failpoints.Evaluate(s.query_site);
    const Clock::time_point t1 = Clock::now();
    if (!NoteProbe(s, t1 - t0, hit.fired)) {
      ++out.shards.down;
      continue;
    }
    ++out.shards.ok;
    served[s.id] = 0;
    if (t1 > deadline) {
      out.deadline_expired = true;
      return out;
    }
  }
  if (out.shards.ok == 0 || k == 0 || tau == 0) return out;
  auto serving = [&](graph::Edge e) -> int64_t& {
    return served[ShardOfEdge(e, n)];
  };

  // One walk of the slab in canonical (score desc, edge id asc) order,
  // keeping the healthy shards' entries: the merge of their masked slices,
  // read straight off the one image they share.
  std::span<const core::FrozenEsdIndex::Entry> entries;
  if (slab != core::FrozenEsdIndex::kNoSlab) entries = image.ListAt(slab);
  out.result.reserve(std::min<size_t>(k, entries.size()));
  std::vector<graph::EdgeId> reported;
  uint64_t steps = 0;
  for (const core::FrozenEsdIndex::Entry& entry : entries) {
    if (out.result.size() >= k) break;
    if ((++steps & 1023u) == 0 && Clock::now() > deadline) {
      out.deadline_expired = true;
      return out;
    }
    const graph::Edge edge = image.EdgeAt(entry.e);
    int64_t& count = serving(edge);
    if (count == kExcluded) continue;
    ++count;
    out.result.push_back({edge, entry.score});
    if (pad_with_zero_edges) reported.push_back(entry.e);
  }
  out.drained_entries = out.result.size();

  // Zero-padding in ascending edge-id order over the healthy shards' live
  // edges, skipping the ones the walk reported.
  if (pad_with_zero_edges) {
    out.scan_end_ns = obs::MonotonicNanos();
    std::sort(reported.begin(), reported.end());
    for (graph::EdgeId e = 0;
         e < image.EdgeSlotCount() && out.result.size() < k; ++e) {
      if ((e & 4095u) == 0 && Clock::now() > deadline) {
        out.deadline_expired = true;
        return out;
      }
      if (!image.IsLive(e) || serving(image.EdgeAt(e)) == kExcluded ||
          std::binary_search(reported.begin(), reported.end(), e)) {
        continue;
      }
      out.result.push_back({image.EdgeAt(e), 0});
    }
  }

  for (const auto& sp : shards_) {
    if (served[sp->id] == kExcluded) continue;
    sp->queries.fetch_add(1, std::memory_order_relaxed);
    sp->drained.fetch_add(static_cast<uint64_t>(served[sp->id]),
                          std::memory_order_relaxed);
  }
  return out;
}

// ---- Introspection ---------------------------------------------------------

std::vector<ShardStatus> ShardedQueryEngine::Status() const {
  const Clock::time_point now = Clock::now();
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  for (const auto& sp : shards_) {
    ShardStatus st;
    st.id = sp->id;
    st.state = Up(*sp, now) ? "ok" : "down";
    st.queries = sp->queries.load(std::memory_order_relaxed);
    st.drained = sp->drained.load(std::memory_order_relaxed);
    st.stall_trips = sp->stall_trips.load(std::memory_order_relaxed);
    out.push_back(std::move(st));
  }
  return out;
}

void ShardedQueryEngine::ExportMetrics() const {
  const Clock::time_point now = Clock::now();
  uint32_t down = 0;
  for (const auto& sp : shards_) down += Up(*sp, now) ? 0 : 1;
  reg_.GetGauge("esd_shard_count", "Configured shards").Set(shards_.size());
  reg_.GetGauge("esd_shard_ok", "Shards serving").Set(shards_.size() - down);
  reg_.GetGauge("esd_shard_degraded",
                "Shards alive but excluded from answers (always 0: every "
                "shard serves the writer's last good epoch)")
      .Set(0);
  reg_.GetGauge("esd_shard_down", "Shards whose stall breaker is open")
      .Set(down);
}

}  // namespace esd::shard
