#include "shard/sharded_engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/index_builder.h"
#include "fault/failpoint.h"
#include "shard/partition.h"

namespace esd::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// mkdir -p for the two-level fleet layout (<dir>, <dir>/shard-<i>).
bool EnsureDir(const std::string& path, std::string* error) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return true;
  *error = path + ": " + std::strerror(errno);
  return false;
}

const char* ClassName(int cls) {
  switch (cls) {
    case 0: return "ok";
    case 1: return "degraded";
    default: return "down";
  }
}

}  // namespace

ShardedQueryEngine::ShardedQueryEngine(const ShardedOptions& options,
                                       bool live_mode)
    : options_(options),
      live_mode_(live_mode),
      reg_(options.registry != nullptr ? *options.registry
                                       : obs::MetricRegistry::Global()),
      stall_trips_total_(reg_.GetCounter(
          "esd_shard_stall_trips_total",
          "Query stall breaker openings across all shards")),
      quarantined_total_(reg_.GetCounter(
          "esd_shard_quarantined_total",
          "Shards marked down (open failure, stale recovery, overflow)")),
      replayed_total_(reg_.GetCounter(
          "esd_shard_replayed_total",
          "Journal updates replayed into healing shards")) {
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

std::unique_ptr<ShardedQueryEngine> ShardedQueryEngine::Open(
    const graph::Graph& bootstrap, const ShardedOptions& options,
    std::string* error) {
  std::unique_ptr<ShardedQueryEngine> engine(
      new ShardedQueryEngine(options, /*live_mode=*/true));
  const uint32_t n = engine->num_shards();
  std::string first_error;
  std::string dir_error;
  const bool root_ok = EnsureDir(options.dir, &dir_error);
  for (auto& sp : engine->shards_) {
    Shard& s = *sp;
    const std::string shard_dir =
        options.dir + "/shard-" + std::to_string(s.id);
    std::string err;
    if (!root_ok) {
      err = dir_error;
    } else if (EnsureDir(shard_dir, &err)) {
      live::LiveOptions lo;
      lo.wal_path = shard_dir + "/wal.log";
      lo.snapshot_path = shard_dir + "/snapshot.bin";
      lo.scorer = options.scorer;
      lo.refreeze_every = options.refreeze_every;
      lo.fsync_on_batch = options.fsync_on_batch;
      lo.max_vertex_id = options.max_vertex_id;
      lo.pool_threads = options.pool_threads;
      lo.registry = options.registry;
      lo.wal_retry = options.wal_retry;
      lo.heal_retry_interval = options.heal_retry_interval;
      lo.refreeze_breaker_threshold = options.refreeze_breaker_threshold;
      lo.refreeze_breaker_cooldown = options.refreeze_breaker_cooldown;
      lo.serve_filter = OwnsFilter(s.id, n);
      lo.fault_site_suffix = ".shard" + std::to_string(s.id);
      s.live = live::LiveEsdIndex::Open(bootstrap, lo, &err);
    }
    if (s.live == nullptr) {
      if (first_error.empty()) first_error = err;
      engine->MarkDown(s, "open failed: " + err);
    }
  }

  // Quarantine shards that recovered to an older durable watermark than
  // the fleet's newest: their serve filters would answer from a torn past.
  uint64_t fleet_seq = 0;
  for (const auto& sp : engine->shards_) {
    if (sp->live != nullptr && !sp->down.load(std::memory_order_relaxed)) {
      fleet_seq = std::max(fleet_seq, sp->live->Stats().applied_seq);
    }
  }
  uint32_t up = 0;
  for (auto& sp : engine->shards_) {
    Shard& s = *sp;
    if (s.live == nullptr || s.down.load(std::memory_order_relaxed)) continue;
    const uint64_t seq = s.live->Stats().applied_seq;
    if (seq < fleet_seq) {
      engine->MarkDown(s, "stale after recovery (applied_seq " +
                              std::to_string(seq) + " < fleet " +
                              std::to_string(fleet_seq) +
                              "); resync required");
    } else {
      ++up;
    }
  }
  if (up == 0) {
    if (error != nullptr) {
      *error = "all " + std::to_string(n) +
               " shards failed to open: " + first_error;
    }
    return nullptr;
  }
  return engine;
}

std::unique_ptr<ShardedQueryEngine> ShardedQueryEngine::BuildStatic(
    const graph::Graph& g, const ShardedOptions& options) {
  std::unique_ptr<ShardedQueryEngine> engine(
      new ShardedQueryEngine(options, /*live_mode=*/false));
  const uint32_t n = engine->num_shards();
  const core::FrozenEsdIndex full =
      core::BuildFrozenIndex(g, core::ScorerForKind(options.scorer));
  for (auto& sp : engine->shards_) {
    sp->frozen = std::make_shared<const core::FrozenEsdIndex>(
        core::FilterFrozenIndex(full, OwnsFilter(sp->id, n)));
  }
  return engine;
}

// ---- Classification --------------------------------------------------------

ShardedQueryEngine::ShardClass ShardedQueryEngine::Classify(
    const Shard& s, Clock::time_point now) const {
  if (s.down.load(std::memory_order_acquire)) return ShardClass::kDown;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (s.tripped) {
      if (now < s.tripped_until) return ShardClass::kDown;
      // Cooldown elapsed: close the breaker lazily and fall through.
      Shard& mut = const_cast<Shard&>(s);
      mut.tripped = false;
      mut.consecutive_slow = 0;
    }
  }
  if (s.live != nullptr) {
    if (s.live->Health() != obs::HealthState::kOk) return ShardClass::kDegraded;
    if (s.applied.load(std::memory_order_acquire) !=
        journal_end_.load(std::memory_order_acquire)) {
      return ShardClass::kDegraded;
    }
  }
  return ShardClass::kOk;
}

serve::ShardCounts ShardedQueryEngine::Counts() {
  const Clock::time_point now = Clock::now();
  serve::ShardCounts c;
  for (const auto& sp : shards_) {
    switch (Classify(*sp, now)) {
      case ShardClass::kOk: ++c.ok; break;
      case ShardClass::kDegraded: ++c.degraded; break;
      case ShardClass::kDown: ++c.down; break;
    }
  }
  return c;
}

obs::HealthState ShardedQueryEngine::Health() const {
  const Clock::time_point now = Clock::now();
  for (const auto& sp : shards_) {
    if (Classify(*sp, now) != ShardClass::kOk) {
      return obs::HealthState::kDegraded;
    }
  }
  return obs::HealthState::kOk;
}

serve::ServingView ShardedQueryEngine::Pin() {
  serve::ServingView view;
  view.generation = Generation();
  view.shards = Counts();
  view.scorer = options_.scorer;
  view.backend = this;
  return view;
}

serve::ExecuteOutcome ShardedQueryEngine::Execute(
    serve::ServingView& /*view*/, uint32_t k, uint32_t tau,
    bool pad_with_zero_edges, Clock::time_point deadline) {
  return Execute(k, tau, pad_with_zero_edges, deadline);
}

uint64_t ShardedQueryEngine::Generation() {
  const Clock::time_point now = Clock::now();
  uint64_t fp = 14695981039346656037ull;  // FNV offset basis
  auto mix = [&fp](uint64_t v) {
    fp ^= v;
    fp *= 1099511628211ull;  // FNV prime
  };
  for (const auto& sp : shards_) {
    mix(static_cast<uint64_t>(Classify(*sp, now)));
    mix(sp->applied.load(std::memory_order_acquire));
    if (sp->live != nullptr) mix(sp->live->CurrentSnapshot()->epoch);
  }
  std::lock_guard<std::mutex> lock(gen_mu_);
  if (fp != last_fp_) {
    last_fp_ = fp;
    ++generation_;
  }
  return generation_;
}

// ---- Scatter-gather --------------------------------------------------------

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
    // A merely slow shard still contributes this round — the cost is
    // already paid; the breaker protects the *next* queries.
    return true;
  }
  s.consecutive_slow = 0;
  return true;
}

serve::ShardedOutcome ShardedQueryEngine::Execute(
    uint32_t k, uint32_t tau, bool pad_with_zero_edges,
    Clock::time_point deadline) {
  const Clock::time_point now = Clock::now();
  serve::ShardedOutcome out;

  struct Pin {
    Shard* shard = nullptr;
    /// Keeps the live shard's epoch alive for the whole merge.
    std::shared_ptr<const live::EpochSnapshot> snap;
    const core::FrozenEsdIndex* frozen = nullptr;
    std::span<const core::FrozenEsdIndex::Entry> slab;
    size_t pos = 0;
    bool peeked = false;
  };
  std::vector<Pin> pins;
  pins.reserve(shards_.size());
  for (const auto& sp : shards_) {
    switch (Classify(*sp, now)) {
      case ShardClass::kDegraded:
        ++out.shards.degraded;
        continue;
      case ShardClass::kDown:
        ++out.shards.down;
        continue;
      case ShardClass::kOk:
        break;
    }
    Pin p;
    p.shard = sp.get();
    if (sp->live != nullptr) {
      p.snap = sp->live->CurrentSnapshot();
      p.frozen = &p.snap->index;
    } else {
      p.frozen = sp->frozen.get();
    }
    pins.push_back(std::move(p));
  }

  // Scatter probes: the injectable per-shard query edge. A stalled or
  // erroring shard is detected here, charged to its breaker, and (on
  // error) dropped from this round's merge.
  auto& failpoints = fault::FailPointRegistry::Global();
  for (size_t i = 0; i < pins.size();) {
    const Clock::time_point t0 = Clock::now();
    const fault::FaultHit hit = failpoints.Evaluate(pins[i].shard->query_site);
    const Clock::time_point t1 = Clock::now();
    const bool usable = NoteProbe(*pins[i].shard, t1 - t0, hit.fired);
    if (t1 > deadline) {
      out.deadline_expired = true;
      out.shards.ok = static_cast<uint16_t>(pins.size());
      return out;
    }
    if (!usable) {
      ++out.shards.down;
      pins.erase(pins.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  out.shards.ok = static_cast<uint16_t>(pins.size());
  if (pins.empty()) return out;

  // One slab binary search per shard, then the k-way head merge in the
  // canonical (score desc, edge id asc) order. Slot layouts are identical
  // across shards, so edge-id ties order exactly as the unsharded slab.
  for (Pin& p : pins) {
    const size_t slab = tau == 0 ? core::FrozenEsdIndex::kNoSlab
                                 : p.frozen->FindSlab(tau);
    if (slab != core::FrozenEsdIndex::kNoSlab) p.slab = p.frozen->ListAt(slab);
    p.shard->queries.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<graph::EdgeId> reported;
  reported.reserve(k);
  out.result.reserve(k);
  uint64_t steps = 0;
  while (out.result.size() < k) {
    int best = -1;
    for (size_t i = 0; i < pins.size(); ++i) {
      Pin& p = pins[i];
      if (p.pos >= p.slab.size()) continue;
      p.peeked = true;
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      const core::FrozenEsdIndex::Entry& e = p.slab[p.pos];
      const core::FrozenEsdIndex::Entry& b =
          pins[static_cast<size_t>(best)].slab[pins[static_cast<size_t>(best)].pos];
      if (e.score > b.score || (e.score == b.score && e.e < b.e)) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    Pin& p = pins[static_cast<size_t>(best)];
    const core::FrozenEsdIndex::Entry e = p.slab[p.pos++];
    // The consumer's NEXT head has not been examined yet — if the merge
    // stops here it must not count as drained, or the early-exit bound
    // k + (#shards - 1) overshoots by one.
    p.peeked = false;
    out.result.push_back({p.frozen->EdgeAt(e.e), e.score});
    reported.push_back(e.e);
    if ((++steps & 1023u) == 0 && Clock::now() > deadline) {
      out.deadline_expired = true;
      return out;
    }
  }

  // Early-exit observable: consumed entries plus peeked-but-unconsumed
  // heads — at most k + (#shards - 1) total.
  for (const Pin& p : pins) {
    const uint64_t drained =
        p.pos + ((p.peeked && p.pos < p.slab.size()) ? 1 : 0);
    out.drained_entries += drained;
    p.shard->drained.fetch_add(drained, std::memory_order_relaxed);
  }

  // Zero-padding in ascending edge-id order across the union of owned
  // live edges. Each edge has exactly one owner, so scanning the shards'
  // masked live bitmaps never double-reports.
  if (pad_with_zero_edges && out.result.size() < k) {
    std::sort(reported.begin(), reported.end());
    size_t slots = 0;
    for (const Pin& p : pins) slots = std::max(slots, p.frozen->EdgeSlotCount());
    for (graph::EdgeId e = 0; e < slots && out.result.size() < k; ++e) {
      if ((e & 4095u) == 0 && Clock::now() > deadline) {
        out.deadline_expired = true;
        return out;
      }
      if (std::binary_search(reported.begin(), reported.end(), e)) continue;
      for (const Pin& p : pins) {
        if (p.frozen->IsLive(e)) {
          out.result.push_back({p.frozen->EdgeAt(e), 0});
          break;
        }
      }
    }
  }
  return out;
}

// ---- Write path ------------------------------------------------------------

void ShardedQueryEngine::MarkDown(Shard& s, std::string reason) {
  bool was_down = s.down.exchange(true, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    s.down_reason = std::move(reason);
  }
  if (!was_down) quarantined_total_.Inc();
}

void ShardedQueryEngine::CatchUpShardLocked(Shard& s, uint64_t fresh_base) {
  if (s.down.load(std::memory_order_relaxed) || s.live == nullptr) return;
  const uint64_t end = journal_base_ + journal_.size();
  std::vector<live::LiveUpdate> scratch;
  while (s.applied.load(std::memory_order_relaxed) < end) {
    const uint64_t before = s.applied.load(std::memory_order_relaxed);
    const size_t off = static_cast<size_t>(before - journal_base_);
    const size_t n = std::min<size_t>(journal_.size() - off, 512);
    scratch.assign(journal_.begin() + static_cast<ptrdiff_t>(off),
                   journal_.begin() + static_cast<ptrdiff_t>(off + n));
    const live::ApplyResult r = s.live->ApplyBatchTyped(scratch);
    s.applied.fetch_add(r.processed, std::memory_order_acq_rel);
    // Only the portion below fresh_base is replay — updates the shard
    // missed while sick. The fresh tail of the current broadcast is
    // ordinary application, even on a shard that just healed.
    const uint64_t after = before + r.processed;
    const uint64_t replay =
        std::min(after, fresh_base) - std::min(before, fresh_base);
    if (replay > 0) {
      s.replayed.fetch_add(replay, std::memory_order_relaxed);
      replayed_total_.Inc(replay);
    }
    if (r.status != live::ApplyStatus::kOk) break;
  }
  if (end - s.applied.load(std::memory_order_relaxed) >
      options_.max_catchup_lag) {
    MarkDown(s, "catch-up journal overflow (lag > " +
                    std::to_string(options_.max_catchup_lag) +
                    "); resync required");
  }
}

void ShardedQueryEngine::CatchUpAllLocked(uint64_t fresh_base) {
  for (auto& sp : shards_) CatchUpShardLocked(*sp, fresh_base);
}

void ShardedQueryEngine::TrimJournalLocked() {
  uint64_t min_applied = journal_base_ + journal_.size();
  bool any_up = false;
  for (const auto& sp : shards_) {
    if (sp->down.load(std::memory_order_relaxed) || sp->live == nullptr) {
      continue;
    }
    any_up = true;
    min_applied = std::min(min_applied,
                           sp->applied.load(std::memory_order_relaxed));
  }
  const uint64_t trim_to = any_up ? min_applied : journal_base_ + journal_.size();
  while (journal_base_ < trim_to && !journal_.empty()) {
    journal_.pop_front();
    ++journal_base_;
  }
}

live::ApplyResult ShardedQueryEngine::ApplyBatchTyped(
    std::span<const live::LiveUpdate> updates) {
  live::ApplyResult r;
  if (!live_mode_) {
    r.status = live::ApplyStatus::kDegraded;
    r.message = "static sharded engine is read-only";
    return r;
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  // Whole-batch bounds pre-check: a rejected batch must reach *no* shard,
  // or the fleet's watermarks would disagree about what exists.
  for (const live::LiveUpdate& u : updates) {
    if (u.kind == live::UpdateKind::kInsert &&
        (u.u > options_.max_vertex_id || u.v > options_.max_vertex_id)) {
      r.status = live::ApplyStatus::kBounds;
      r.message = "vertex id exceeds max_vertex_id (" +
                  std::to_string(options_.max_vertex_id) + ")";
      return r;
    }
  }
  const uint64_t fresh_base = journal_base_ + journal_.size();
  for (const live::LiveUpdate& u : updates) journal_.push_back(u);
  journal_end_.store(journal_base_ + journal_.size(),
                     std::memory_order_release);
  CatchUpAllLocked(fresh_base);
  TrimJournalLocked();

  const uint64_t watermark = journal_end_.load(std::memory_order_relaxed);
  uint32_t current = 0, behind = 0, down = 0;
  for (const auto& sp : shards_) {
    if (sp->down.load(std::memory_order_relaxed)) {
      ++down;
    } else if (sp->applied.load(std::memory_order_relaxed) == watermark) {
      ++current;
    } else {
      ++behind;
    }
  }
  r.processed = updates.size();
  if (current == 0) {
    r.processed = 0;
    r.status = live::ApplyStatus::kDegraded;
    r.message = "no shard durably accepted the batch (" +
                std::to_string(behind) + " behind, " + std::to_string(down) +
                " down); journaled for replay after heal";
  } else if (behind + down > 0) {
    r.message = std::to_string(behind) + " shard(s) behind, " +
                std::to_string(down) + " down; replay queued";
  }
  return r;
}

void ShardedQueryEngine::CatchUp() {
  if (!live_mode_) return;
  std::lock_guard<std::mutex> lock(write_mu_);
  // No new writes ride along, so everything applied here is replay.
  CatchUpAllLocked(journal_base_ + journal_.size());
  TrimJournalLocked();
}

bool ShardedQueryEngine::Checkpoint(std::string* error) {
  if (!live_mode_) {
    if (error != nullptr) *error = "static sharded engine has no checkpoints";
    return false;
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  bool ok = true;
  std::string combined;
  for (auto& sp : shards_) {
    if (sp->down.load(std::memory_order_relaxed) || sp->live == nullptr) {
      continue;
    }
    std::string err;
    if (!sp->live->Checkpoint(&err)) {
      ok = false;
      if (!combined.empty()) combined += "; ";
      combined += "shard " + std::to_string(sp->id) + ": " + err;
    }
  }
  if (!ok && error != nullptr) *error = combined;
  return ok;
}

bool ShardedQueryEngine::RefreezeAll() {
  if (!live_mode_) return true;
  bool ok = true;
  for (auto& sp : shards_) {
    if (sp->down.load(std::memory_order_relaxed) || sp->live == nullptr) {
      continue;
    }
    ok = sp->live->RefreezeNow() && ok;
  }
  return ok;
}

// ---- Introspection ---------------------------------------------------------

std::vector<ShardStatus> ShardedQueryEngine::Status() const {
  const Clock::time_point now = Clock::now();
  const uint64_t watermark = journal_end_.load(std::memory_order_acquire);
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    ShardStatus st;
    st.id = s.id;
    st.state = ClassName(static_cast<int>(Classify(s, now)));
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      st.down_reason = s.down_reason;
    }
    if (s.live != nullptr) {
      st.health = s.live->Health();
      const live::LiveStats ls = s.live->Stats();
      st.epoch = ls.snapshot_epoch;
      st.wal_applied_seq = ls.applied_seq;
    }
    st.journal_applied = s.applied.load(std::memory_order_relaxed);
    st.journal_lag =
        watermark > st.journal_applied ? watermark - st.journal_applied : 0;
    st.queries = s.queries.load(std::memory_order_relaxed);
    st.drained = s.drained.load(std::memory_order_relaxed);
    st.stall_trips = s.stall_trips.load(std::memory_order_relaxed);
    st.replayed = s.replayed.load(std::memory_order_relaxed);
    out.push_back(std::move(st));
  }
  return out;
}

uint64_t ShardedQueryEngine::MemoryBytes() const {
  uint64_t total = 0;
  for (const auto& sp : shards_) {
    if (sp->live != nullptr) {
      total += sp->live->CurrentSnapshot()->index.MemoryBytes();
    } else if (sp->frozen != nullptr) {
      total += sp->frozen->MemoryBytes();
    }
  }
  return total;
}

void ShardedQueryEngine::ExportMetrics() const {
  const Clock::time_point now = Clock::now();
  uint32_t ok = 0, degraded = 0, down = 0;
  for (const auto& sp : shards_) {
    switch (Classify(*sp, now)) {
      case ShardClass::kOk: ++ok; break;
      case ShardClass::kDegraded: ++degraded; break;
      case ShardClass::kDown: ++down; break;
    }
    if (sp->live != nullptr) sp->live->ExportMetrics();
  }
  reg_.GetGauge("esd_shard_count", "Configured shards").Set(shards_.size());
  reg_.GetGauge("esd_shard_ok", "Shards serving and current").Set(ok);
  reg_.GetGauge("esd_shard_degraded", "Shards alive but excluded from merges")
      .Set(degraded);
  reg_.GetGauge("esd_shard_down", "Shards quarantined or breaker-tripped")
      .Set(down);
  uint64_t backlog = 0;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    backlog = journal_.size();
  }
  reg_.GetGauge("esd_shard_journal_backlog",
                "Catch-up journal entries retained for lagging shards")
      .Set(static_cast<double>(backlog));
}

}  // namespace esd::shard
