#include "core/frozen_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/esd_index.h"
#include "obs/trace.h"
#include "util/flat_map.h"

namespace esd::core {

using graph::Edge;
using graph::EdgeId;

namespace {

/// Canonical slab order: score descending, then edge id ascending — the
/// same total order EsdIndex::EntryLess imposes on the treaps.
bool EntryBefore(const FrozenEsdIndex::Entry& a,
                 const FrozenEsdIndex::Entry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.e < b.e;
}

uint32_t ScoreAt(std::span<const uint32_t> sizes, uint32_t c) {
  return static_cast<uint32_t>(
      sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), c));
}

/// The distinct size set C of `pool` (largest value `max_value`),
/// ascending, into *sizes. It marks the values present in a pool-bounded
/// array and then returns true, with (*rank)[v] = the index of v in C. A
/// full ESD image always fits the bound (a size-c component puts a value
/// in the multisets of at least 2c other edges); a filtered shard or a
/// loaded file may not, and falls back to sorting a copy of the pool
/// (returns false, *rank untouched).
bool MarkDistinctSizes(const std::vector<uint32_t>& pool, uint32_t max_value,
                       std::vector<uint32_t>* sizes,
                       std::vector<uint32_t>* rank) {
  sizes->clear();
  if (max_value > pool.size()) {
    *sizes = pool;
    std::sort(sizes->begin(), sizes->end());
    sizes->erase(std::unique(sizes->begin(), sizes->end()), sizes->end());
    return false;
  }
  rank->assign(static_cast<size_t>(max_value) + 1, 0);
  for (uint32_t v : pool) (*rank)[v] = 1;
  for (uint32_t v = 0; v <= max_value; ++v) {
    if ((*rank)[v] == 0) continue;
    (*rank)[v] = static_cast<uint32_t>(sizes->size());
    sizes->push_back(v);
  }
  return true;
}

}  // namespace

FrozenEsdIndex FrozenEsdIndex::FromSizePool(std::vector<Edge> edges,
                                            EdgeSizePool sizes,
                                            std::vector<uint8_t> live,
                                            ScorerKind scorer) {
  obs::PhaseSeries phases;
  phases.Begin("build.slab_sort");
  FrozenEsdIndex out;
  out.scorer_ = scorer;
  const size_t n = edges.size();
  assert(sizes.offsets.size() == n + 1 &&
         sizes.offsets[n] == sizes.values.size());
  out.edges_ = std::move(edges);
  out.live_ = live.empty() ? std::vector<uint8_t>(n, 1) : std::move(live);
  assert(out.live_.size() == n);
  out.size_offsets_ = std::move(sizes.offsets);
  out.size_pool_ = std::move(sizes.values);
  uint32_t max_value = 0;
  uint64_t max_len = 0;
  for (size_t e = 0; e < n; ++e) {
    std::span<const uint32_t> s = out.EdgeSizes(static_cast<EdgeId>(e));
    assert(std::is_sorted(s.begin(), s.end()));
    assert(out.live_[e] || s.empty());
    if (out.live_[e]) ++out.num_live_;
    if (s.empty()) continue;
    max_value = std::max(max_value, s.back());
    max_len = std::max<uint64_t>(max_len, s.size());
  }

  std::vector<uint32_t> rank;
  const bool dense =
      MarkDistinctSizes(out.size_pool_, max_value, &out.sizes_, &rank);
  auto slot_of = [&](uint32_t v) -> size_t {
    if (dense) return rank[v];
    return static_cast<size_t>(
        std::lower_bound(out.sizes_.begin(), out.sizes_.end(), v) -
        out.sizes_.begin());
  };
  const size_t num_c = out.sizes_.size();

  // |H(c_i)| = #{edges with max(C_e) >= c_i}: bucket edges by the index of
  // their maximum size (CSR, each bucket in ascending edge id), then
  // suffix-sum.
  auto has_sizes = [&](size_t e) {
    return out.size_offsets_[e] != out.size_offsets_[e + 1];
  };
  auto max_slot = [&](size_t e) {
    return slot_of(out.size_pool_[out.size_offsets_[e + 1] - 1]);
  };
  std::vector<uint64_t> bucket(num_c + 1, 0);
  for (size_t e = 0; e < n; ++e) {
    if (has_sizes(e)) ++bucket[max_slot(e) + 1];
  }
  for (size_t i = 0; i < num_c; ++i) bucket[i + 1] += bucket[i];
  std::vector<EdgeId> by_max(bucket[num_c]);
  {
    std::vector<uint64_t> cursor(bucket.begin(), bucket.end() - 1);
    for (size_t e = 0; e < n; ++e) {
      if (has_sizes(e)) by_max[cursor[max_slot(e)]++] = static_cast<EdgeId>(e);
    }
  }
  out.offsets_.assign(num_c + 1, 0);
  for (size_t i = 0; i < num_c; ++i) {
    out.offsets_[i + 1] = out.offsets_[i] + (by_max.size() - bucket[i]);
  }
  out.entries_.resize(out.offsets_[num_c]);

  // Sweep c from largest to smallest keeping the active set (edges with
  // max >= c) in edge-id order by merging each bucket into it, then emit
  // each slab with a stable counting sort on score, descending: the
  // canonical (score desc, edge asc) order in O(|slab| + max score). A
  // slab whose top score dwarfs its length (a pathological scorer) takes a
  // comparison sort instead, so the sweep stays O(entries log) overall.
  std::vector<EdgeId> active, merged;
  active.reserve(by_max.size());
  merged.reserve(by_max.size());
  std::vector<uint32_t> score(by_max.size());
  std::vector<uint64_t> start(max_len + 2, 0);
  for (size_t i = num_c; i-- > 0;) {
    merged.resize(active.size() + (bucket[i + 1] - bucket[i]));
    std::merge(active.begin(), active.end(), by_max.begin() + bucket[i],
               by_max.begin() + bucket[i + 1], merged.begin());
    active.swap(merged);
    const uint32_t c = out.sizes_[i];
    uint32_t top = 0;
    for (size_t j = 0; j < active.size(); ++j) {
      score[j] = ScoreAt(out.EdgeSizes(active[j]), c);
      top = std::max(top, score[j]);
    }
    Entry* slab = out.entries_.data() + out.offsets_[i];
    assert(active.size() == out.offsets_[i + 1] - out.offsets_[i]);
    if (top > active.size()) {
      for (size_t j = 0; j < active.size(); ++j) {
        slab[j] = Entry{score[j], active[j]};
      }
      std::sort(slab, slab + active.size(), EntryBefore);
      continue;
    }
    // start[s] = number of entries scoring above s.
    std::fill(start.begin(), start.begin() + top + 2, 0);
    for (size_t j = 0; j < active.size(); ++j) ++start[score[j]];
    uint64_t above = 0;
    for (uint32_t s = top + 1; s-- > 0;) {
      const uint64_t count = start[s];
      start[s] = above;
      above += count;
    }
    for (size_t j = 0; j < active.size(); ++j) {
      slab[start[score[j]]++] = Entry{score[j], active[j]};
    }
  }
  return out;
}

FrozenEsdIndex FrozenEsdIndex::FromDelta(const FrozenEsdIndex& base,
                                         const SlotPatch& patch) {
  const size_t n = patch.slot_count;
  const size_t base_n = base.edges_.size();
  const size_t np = patch.ids.size();
  assert(n >= base_n && patch.edges.size() == np && patch.live.size() == np &&
         patch.sizes.offsets.size() == np + 1);
  auto patched_sizes = [&](size_t i) -> std::span<const uint32_t> {
    return {patch.sizes.values.data() + patch.sizes.offsets[i],
            patch.sizes.values.data() + patch.sizes.offsets[i + 1]};
  };
  FrozenEsdIndex out;
  out.scorer_ = base.scorer_;

  // Registry: the base's arrays, grown to the table's slot count, with the
  // patched slots overwritten.
  out.edges_.reserve(n);
  out.edges_.assign(base.edges_.begin(), base.edges_.end());
  out.edges_.resize(n);
  out.live_.reserve(n);
  out.live_.assign(base.live_.begin(), base.live_.end());
  out.live_.resize(n, 0);
  out.num_live_ = base.num_live_;
  for (size_t i = 0; i < np; ++i) {
    const EdgeId e = patch.ids[i];
    assert(e < n && (i == 0 || patch.ids[i - 1] < e));
    if (e < base_n) out.num_live_ -= base.live_[e];
    out.num_live_ += patch.live[i];
    out.edges_[e] = patch.edges[i];
    out.live_[e] = patch.live[i];
  }

  // Size pool: each run of unpatched slots is one block copy of the base's
  // pool, its offsets shifted; each patched slot takes the patch's values.
  out.size_offsets_.resize(n + 1);
  out.size_pool_.reserve(base.size_pool_.size() + patch.sizes.values.size());
  auto copy_run = [&](size_t from, size_t to) {
    assert(from == to || to <= base_n);  // slots past the base are patched
    if (from == to) return;
    const uint64_t lo = base.size_offsets_[from];
    const uint64_t at = out.size_pool_.size();
    for (size_t e = from; e < to; ++e) {
      out.size_offsets_[e] = base.size_offsets_[e] - lo + at;
    }
    out.size_pool_.insert(out.size_pool_.end(), base.size_pool_.begin() + lo,
                          base.size_pool_.begin() + base.size_offsets_[to]);
  };
  size_t next = 0;
  for (size_t i = 0; i < np; ++i) {
    const EdgeId e = patch.ids[i];
    copy_run(next, e);
    out.size_offsets_[e] = out.size_pool_.size();
    std::span<const uint32_t> values = patched_sizes(i);
    assert(std::is_sorted(values.begin(), values.end()));
    assert(patch.live[i] || values.empty());
    out.size_pool_.insert(out.size_pool_.end(), values.begin(), values.end());
    next = e + 1;
  }
  copy_run(next, n);
  out.size_offsets_[n] = out.size_pool_.size();

  std::vector<uint32_t> rank;
  const uint32_t max_value =
      out.size_pool_.empty()
          ? 0
          : *std::max_element(out.size_pool_.begin(), out.size_pool_.end());
  MarkDistinctSizes(out.size_pool_, max_value, &out.sizes_, &rank);
  const size_t num_c = out.sizes_.size();

  // The patched slots entering the new slabs (`fresh`, by their new
  // maximum) and leaving the base slabs (`gone`, by their base maximum),
  // each sorted by that maximum descending, so the slots in the slab of a
  // size c are a prefix.
  struct Ranked {
    uint32_t max;
    EdgeId e;
    std::span<const uint32_t> sizes;
  };
  auto by_max_desc = [](const Ranked& a, const Ranked& b) {
    return a.max > b.max;
  };
  std::vector<Ranked> fresh, gone;
  for (size_t i = 0; i < np; ++i) {
    const EdgeId e = patch.ids[i];
    std::span<const uint32_t> now = patched_sizes(i);
    if (!now.empty()) fresh.push_back({now.back(), e, now});
    if (e < base_n) {
      std::span<const uint32_t> was = base.EdgeSizes(e);
      if (!was.empty()) gone.push_back({was.back(), e, was});
    }
  }
  std::sort(fresh.begin(), fresh.end(), by_max_desc);
  std::sort(gone.begin(), gone.end(), by_max_desc);
  auto prefix = [](const std::vector<Ranked>& v, uint32_t c) {
    return static_cast<size_t>(
        std::partition_point(v.begin(), v.end(),
                             [c](const Ranked& r) { return r.max >= c; }) -
        v.begin());
  };
  // For each new size, its base slab (kNoSlab when c exceeds every base
  // size) and slab lengths: |base slab| - |gone prefix| + |fresh prefix|.
  std::vector<size_t> from(num_c);
  out.offsets_.assign(num_c + 1, 0);
  for (size_t i = 0; i < num_c; ++i) {
    const uint32_t c = out.sizes_[i];
    const auto it =
        std::lower_bound(base.sizes_.begin(), base.sizes_.end(), c);
    from[i] = it == base.sizes_.end()
                  ? kNoSlab
                  : static_cast<size_t>(it - base.sizes_.begin());
    const uint64_t kept =
        from[i] == kNoSlab
            ? 0
            : base.ListAt(from[i]).size() - prefix(gone, *it);
    out.offsets_[i + 1] = out.offsets_[i] + kept + prefix(fresh, c);
  }
  out.entries_.reserve(out.offsets_[num_c]);

  std::vector<Entry> add;
  std::vector<size_t> drop;
  for (size_t i = 0; i < num_c; ++i) {
    const uint32_t c = out.sizes_[i];
    add.clear();
    for (size_t j = 0, p = prefix(fresh, c); j < p; ++j) {
      add.push_back(Entry{ScoreAt(fresh[j].sizes, c), fresh[j].e});
    }
    std::sort(add.begin(), add.end(), EntryBefore);
    std::span<const Entry> old;
    drop.clear();
    if (from[i] != kNoSlab) {
      old = base.ListAt(from[i]);
      const uint32_t c_old = base.sizes_[from[i]];
      for (size_t j = 0, p = prefix(gone, c_old); j < p; ++j) {
        const Entry was{ScoreAt(gone[j].sizes, c_old), gone[j].e};
        const auto at = std::lower_bound(old.begin(), old.end(), was,
                                         EntryBefore);
        assert(at != old.end() && *at == was);
        drop.push_back(static_cast<size_t>(at - old.begin()));
      }
      std::sort(drop.begin(), drop.end());
    }
    // Copies old[lo, hi) minus the dropped positions, in blocks.
    size_t d = 0;
    auto copy_old = [&](size_t lo, size_t hi) {
      for (; d < drop.size() && drop[d] < hi; ++d) {
        out.entries_.insert(out.entries_.end(), old.begin() + lo,
                            old.begin() + drop[d]);
        lo = drop[d] + 1;
      }
      out.entries_.insert(out.entries_.end(), old.begin() + lo,
                          old.begin() + hi);
    };
    size_t pos = 0;
    for (const Entry& x : add) {
      const size_t at = static_cast<size_t>(
          std::lower_bound(old.begin() + pos, old.end(), x, EntryBefore) -
          old.begin());
      copy_old(pos, at);
      out.entries_.push_back(x);
      pos = at;
    }
    copy_old(pos, old.size());
    assert(out.entries_.size() == out.offsets_[i + 1]);
  }
  return out;
}

bool FrozenEsdIndex::Adopt(Parts parts, FrozenEsdIndex* out,
                           std::string* error) {
  auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!ValidScorerKind(static_cast<uint32_t>(parts.scorer))) {
    return fail("frozen index: unknown scorer id");
  }
  const size_t n = parts.edges.size();
  if (parts.live.size() != n) return fail("frozen index: live mask size");
  if (parts.size_offsets.size() != n + 1 || parts.size_offsets[0] != 0 ||
      parts.size_offsets[n] != parts.size_pool.size()) {
    return fail("frozen index: size-offset table malformed");
  }
  // Each offset table is checked to be monotone before any loop reads
  // through it: with both ends pinned, that keeps every range in its array.
  if (!std::is_sorted(parts.size_offsets.begin(), parts.size_offsets.end())) {
    return fail("frozen index: size offsets not monotone");
  }
  uint64_t num_live = 0;
  for (size_t e = 0; e < n; ++e) {
    const uint64_t lo = parts.size_offsets[e], hi = parts.size_offsets[e + 1];
    if (parts.live[e] == 0 && lo != hi) {
      return fail("frozen index: freed slot with non-empty multiset");
    }
    num_live += parts.live[e] != 0 ? 1 : 0;
    uint32_t prev = 0;
    for (uint64_t i = lo; i < hi; ++i) {
      if (parts.size_pool[i] == 0 || parts.size_pool[i] < prev) {
        return fail("frozen index: multiset not sorted/positive");
      }
      prev = parts.size_pool[i];
    }
  }
  // C must be exactly the distinct sizes occurring in the pool.
  {
    std::vector<uint32_t> want = parts.size_pool;
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    if (want != parts.sizes) {
      return fail("frozen index: size set C does not match multisets");
    }
  }
  const size_t num_c = parts.sizes.size();
  if (parts.offsets.size() != num_c + 1 || parts.offsets[0] != 0 ||
      parts.offsets[num_c] != parts.entries.size()) {
    return fail("frozen index: slab offset table malformed");
  }
  if (!std::is_sorted(parts.offsets.begin(), parts.offsets.end())) {
    return fail("frozen index: slab offsets not monotone");
  }
  // Expected |H(c_i)| = #{edges with max(C_e) >= c_i}: bucket each edge by
  // the index of its maximum size, then suffix-sum.
  std::vector<uint64_t> expected_len(num_c + 1, 0);
  for (size_t e = 0; e < n; ++e) {
    const uint64_t shi = parts.size_offsets[e + 1];
    if (parts.size_offsets[e] == shi) continue;
    size_t idx = static_cast<size_t>(
        std::lower_bound(parts.sizes.begin(), parts.sizes.end(),
                         parts.size_pool[shi - 1]) -
        parts.sizes.begin());
    ++expected_len[idx];
  }
  for (size_t i = num_c; i-- > 0;) expected_len[i] += expected_len[i + 1];
  // Validate each slab: strict canonical order, in-range live edges, and
  // scores consistent with the stored multisets. Completeness (every edge
  // with max >= c present) follows from the slab-length check: strict
  // order makes entries distinct, and each must have max >= c.
  for (size_t i = 0; i < num_c; ++i) {
    const uint32_t c = parts.sizes[i];
    const uint64_t lo = parts.offsets[i], hi = parts.offsets[i + 1];
    if (hi - lo != expected_len[i]) {
      return fail("frozen index: slab length wrong");
    }
    for (uint64_t j = lo; j < hi; ++j) {
      const Entry& entry = parts.entries[j];
      if (j > lo && !EntryBefore(parts.entries[j - 1], entry)) {
        return fail("frozen index: slab not in canonical order");
      }
      if (entry.e >= n || parts.live[entry.e] == 0) {
        return fail("frozen index: slab entry references bad edge");
      }
      std::span<const uint32_t> sizes{
          parts.size_pool.data() + parts.size_offsets[entry.e],
          parts.size_pool.data() + parts.size_offsets[entry.e + 1]};
      if (entry.score != ScoreAt(sizes, c) || entry.score == 0) {
        return fail("frozen index: slab score inconsistent with multiset");
      }
    }
  }
  out->edges_ = std::move(parts.edges);
  out->live_ = std::move(parts.live);
  out->size_offsets_ = std::move(parts.size_offsets);
  out->size_pool_ = std::move(parts.size_pool);
  out->sizes_ = std::move(parts.sizes);
  out->offsets_ = std::move(parts.offsets);
  out->entries_ = std::move(parts.entries);
  out->num_live_ = num_live;
  out->scorer_ = parts.scorer;
  return true;
}

size_t FrozenEsdIndex::FindSlab(uint32_t tau) const {
  counters_.AddSlabSearch();
  auto it = std::lower_bound(sizes_.begin(), sizes_.end(), tau);
  if (it == sizes_.end()) return kNoSlab;
  return static_cast<size_t>(it - sizes_.begin());
}

TopKResult FrozenEsdIndex::Query(uint32_t k, uint32_t tau,
                                 bool pad_with_zero_edges) const {
  if (k == 0 || tau == 0) return {};
  return QueryAtSlab(FindSlab(tau), k, pad_with_zero_edges);
}

TopKResult FrozenEsdIndex::QueryAtSlab(size_t slab_index, uint32_t k,
                                       bool pad_with_zero_edges) const {
  TopKResult out;
  if (k == 0) return out;
  counters_.AddQuery();
  std::span<const Entry> slab;
  if (slab_index != kNoSlab) slab = ListAt(slab_index);
  const size_t take = std::min<size_t>(k, slab.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ScoredEdge{edges_[slab[i].e], slab[i].score});
  }
  if (pad_with_zero_edges) PadQueryResult(slab_index, k, &out);
  // Only the real slab prefix counts as entries scanned: zero-padded filler
  // edges never touch a slab, and counting them would inflate the engine
  // work counters cache-benefit analysis compares against.
  counters_.AddEntriesScanned(take);
  return out;
}

void FrozenEsdIndex::PadQueryResult(size_t slab_index, uint32_t k,
                                    TopKResult* inout) const {
  TopKResult& out = *inout;
  if (out.size() >= k) return;
  std::span<const Entry> slab;
  if (slab_index != kNoSlab) slab = ListAt(slab_index);
  // The entries already in `out` are exactly the slab's first out.size()
  // (the unpadded-answer precondition), so the dedup set rebuilds from the
  // slab prefix rather than from the endpoint pairs.
  const size_t take = std::min<size_t>(out.size(), slab.size());
  util::FlatSet<EdgeId> included(take);
  for (size_t i = 0; i < take; ++i) included.Insert(slab[i].e);
  for (EdgeId e = 0; e < edges_.size() && out.size() < k; ++e) {
    if (live_[e] && !included.Contains(e)) {
      out.push_back(ScoredEdge{edges_[e], 0});
    }
  }
}

uint32_t FrozenEsdIndex::ScoreOf(EdgeId e, uint32_t tau) const {
  return ScoreAt(EdgeSizes(e), tau);
}

uint64_t FrozenEsdIndex::CountWithScoreAtLeast(uint32_t tau,
                                               uint32_t min_score) const {
  if (min_score == 0) return num_live_;
  if (tau == 0) return 0;
  counters_.AddSlabSearch();
  auto it = std::lower_bound(sizes_.begin(), sizes_.end(), tau);
  if (it == sizes_.end()) return 0;
  std::span<const Entry> slab =
      ListAt(static_cast<size_t>(it - sizes_.begin()));
  // Scores are descending, so the >= min_score prefix is a partition point.
  auto pos = std::partition_point(
      slab.begin(), slab.end(),
      [min_score](const Entry& x) { return x.score >= min_score; });
  return static_cast<uint64_t>(pos - slab.begin());
}

TopKResult FrozenEsdIndex::QueryWithScoreAtLeast(uint32_t tau,
                                                 uint32_t min_score,
                                                 size_t limit) const {
  TopKResult out;
  if (tau == 0 || min_score == 0) return out;
  counters_.AddSlabSearch();
  auto it = std::lower_bound(sizes_.begin(), sizes_.end(), tau);
  if (it == sizes_.end()) return out;
  for (const Entry& entry : ListAt(static_cast<size_t>(it - sizes_.begin()))) {
    if (entry.score < min_score) break;
    if (limit > 0 && out.size() >= limit) break;
    out.push_back(ScoredEdge{edges_[entry.e], entry.score});
  }
  counters_.AddEntriesScanned(out.size());
  return out;
}

uint64_t FrozenEsdIndex::MemoryBytes() const {
  return entries_.size() * sizeof(Entry) +
         size_pool_.size() * sizeof(uint32_t) +
         sizes_.size() * sizeof(uint32_t) +
         offsets_.size() * sizeof(uint64_t) +
         size_offsets_.size() * sizeof(uint64_t) +
         edges_.size() * sizeof(Edge) + live_.size() * sizeof(uint8_t);
}

bool operator==(const FrozenEsdIndex& a, const FrozenEsdIndex& b) {
  return a.scorer_ == b.scorer_ && a.edges_ == b.edges_ &&
         a.live_ == b.live_ && a.size_offsets_ == b.size_offsets_ &&
         a.size_pool_ == b.size_pool_ && a.sizes_ == b.sizes_ &&
         a.offsets_ == b.offsets_ && a.entries_ == b.entries_;
}

FrozenEsdIndex Freeze(const EdgeSizeTable& table) {
  const size_t slots = table.EdgeSlotCount();
  std::vector<Edge> edges;
  std::vector<uint8_t> live;
  edges.reserve(slots);
  live.reserve(slots);
  for (EdgeId e = 0; e < slots; ++e) {
    edges.push_back(table.EdgeAt(e));
    live.push_back(table.IsLive(e) ? 1 : 0);
  }
  // Freed slots carry empty multisets, so packing every slot keeps them
  // empty in the pool.
  EdgeSizePool sizes = EdgeSizePool::Pack(
      slots, [&](size_t e) -> const std::vector<uint32_t>& {
        return table.EdgeSizes(static_cast<EdgeId>(e));
      });
  return FrozenEsdIndex::FromSizePool(std::move(edges), std::move(sizes),
                                      std::move(live), table.Scorer());
}

SlotPatch CopySlots(const EdgeSizeTable& table, std::vector<EdgeId> slots) {
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  SlotPatch patch;
  patch.slot_count = table.EdgeSlotCount();
  patch.edges.reserve(slots.size());
  patch.live.reserve(slots.size());
  for (EdgeId e : slots) {
    patch.edges.push_back(table.EdgeAt(e));
    patch.live.push_back(table.IsLive(e) ? 1 : 0);
  }
  patch.sizes = EdgeSizePool::Pack(
      slots.size(), [&](size_t i) -> const std::vector<uint32_t>& {
        return table.EdgeSizes(slots[i]);
      });
  patch.ids = std::move(slots);
  return patch;
}

EsdIndex Thaw(const FrozenEsdIndex& frozen) {
  const size_t slots = frozen.EdgeSlotCount();
  bool all_live = frozen.NumRegisteredEdges() == slots;
  EsdIndex out;
  if (all_live) {
    std::vector<Edge> edges(frozen.Edges().begin(), frozen.Edges().end());
    std::vector<std::vector<uint32_t>> sizes;
    sizes.reserve(slots);
    for (EdgeId e = 0; e < slots; ++e) {
      std::span<const uint32_t> s = frozen.EdgeSizes(e);
      sizes.emplace_back(s.begin(), s.end());
    }
    out.BulkLoad(std::move(edges), std::move(sizes));
  } else {
    // Register every slot first so ids stay sequential (RegisterEdge would
    // otherwise recycle freed ids mid-replay), then free the dead ones.
    for (EdgeId e = 0; e < slots; ++e) {
      EdgeId got = out.RegisterEdge(frozen.EdgeAt(e));
      assert(got == e);
      (void)got;
      if (frozen.IsLive(e)) {
        std::span<const uint32_t> s = frozen.EdgeSizes(e);
        out.SetEdgeSizes(e, std::vector<uint32_t>(s.begin(), s.end()));
      }
    }
    for (EdgeId e = 0; e < slots; ++e) {
      if (!frozen.IsLive(e)) out.UnregisterEdge(e);
    }
  }
  out.SetScorerKind(frozen.Scorer());
  return out;
}

}  // namespace esd::core
