#include "core/frozen_index.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/ego_network.h"
#include "core/esd_index.h"
#include "obs/trace.h"

namespace esd::core {

using graph::Edge;
using graph::EdgeId;

namespace {

/// The distinct size set C of `pool` (largest value `max_value`),
/// ascending, into *sizes, and how many values equal each into *counts. It
/// tallies the values in a pool-bounded array and then returns true, with
/// (*rank)[v] = the index of v in C. A full ESD image always fits the
/// bound (a size-c component puts a value in the multisets of at least 2c
/// other edges); a loaded file may not, and falls back to sorting a copy
/// of the pool (returns false, *rank untouched).
bool TallyDistinctSizes(std::span<const uint32_t> pool, uint32_t max_value,
                        std::vector<uint32_t>* sizes,
                        std::vector<uint64_t>* counts,
                        std::vector<uint32_t>* rank) {
  sizes->clear();
  counts->clear();
  if (max_value > pool.size()) {
    std::vector<uint32_t> sorted(pool.begin(), pool.end());
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size();) {
      const size_t j = static_cast<size_t>(
          std::upper_bound(sorted.begin() + i, sorted.end(), sorted[i]) -
          sorted.begin());
      sizes->push_back(sorted[i]);
      counts->push_back(j - i);
      i = j;
    }
    return false;
  }
  rank->assign(static_cast<size_t>(max_value) + 1, 0);
  for (uint32_t v : pool) ++(*rank)[v];
  const size_t distinct = static_cast<size_t>(
      rank->size() - std::count(rank->begin(), rank->end(), 0u));
  sizes->reserve(distinct);
  counts->reserve(distinct);
  for (uint32_t v = 0; v <= max_value; ++v) {
    if ((*rank)[v] == 0) continue;
    counts->push_back((*rank)[v]);
    (*rank)[v] = static_cast<uint32_t>(sizes->size());
    sizes->push_back(v);
  }
  return true;
}

}  // namespace

ListLayout LayOutLists(std::span<const uint64_t> offsets,
                       std::span<const uint32_t> values) {
  obs::PhaseSeries phases;
  phases.Begin("build.slab_sort");
  const size_t n = offsets.size() - 1;
  assert(offsets[n] == values.size());
  auto sizes_of = [&](size_t e) {
    return values.subspan(offsets[e], offsets[e + 1] - offsets[e]);
  };
  uint32_t max_value = 0;
  uint64_t max_len = 0;
  for (size_t e = 0; e < n; ++e) {
    std::span<const uint32_t> s = sizes_of(e);
    assert(std::is_sorted(s.begin(), s.end()));
    if (s.empty()) continue;
    max_value = std::max(max_value, s.back());
    max_len = std::max<uint64_t>(max_len, s.size());
  }

  ListLayout out;
  std::vector<uint32_t> rank;
  const bool dense =
      TallyDistinctSizes(values, max_value, &out.sizes, &out.counts, &rank);
  auto slot_of = [&](uint32_t v) -> size_t {
    if (dense) return rank[v];
    return static_cast<size_t>(
        std::lower_bound(out.sizes.begin(), out.sizes.end(), v) -
        out.sizes.begin());
  };
  const size_t num_c = out.sizes.size();

  // |H(c_i)| = #{slots with max(C_e) >= c_i}: bucket slots by the index of
  // their maximum size (CSR, each bucket in ascending id), then
  // suffix-sum.
  auto has_sizes = [&](size_t e) { return offsets[e] != offsets[e + 1]; };
  auto max_slot = [&](size_t e) { return slot_of(values[offsets[e + 1] - 1]); };
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
  out.offsets.assign(num_c + 1, 0);
  for (size_t i = 0; i < num_c; ++i) {
    out.offsets[i + 1] = out.offsets[i] + (by_max.size() - bucket[i]);
  }
  out.entries.resize(out.offsets[num_c]);

  // Sweep c from largest to smallest keeping the active set (slots with
  // max >= c) in id order by merging each bucket into it, then emit each
  // slab with a stable counting sort on score, descending: the canonical
  // (score desc, id asc) order in O(|slab| + max score). A slab whose top
  // score dwarfs its length (a pathological scorer) takes a comparison
  // sort instead, so the sweep stays O(entries log) overall.
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
    const uint32_t c = out.sizes[i];
    uint32_t top = 0;
    for (size_t j = 0; j < active.size(); ++j) {
      score[j] = ScoreFromSizes(sizes_of(active[j]), c);
      top = std::max(top, score[j]);
    }
    ListEntry* slab = out.entries.data() + out.offsets[i];
    assert(active.size() == out.offsets[i + 1] - out.offsets[i]);
    if (top > active.size()) {
      for (size_t j = 0; j < active.size(); ++j) {
        slab[j] = ListEntry{score[j], active[j]};
      }
      std::sort(slab, slab + active.size(), ListOrder());
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
      slab[start[score[j]]++] = ListEntry{score[j], active[j]};
    }
  }
  return out;
}

namespace {

size_t ChunkCount(size_t slots) {
  return (slots + kSlotChunk - 1) / kSlotChunk;
}

/// Whether each chunk's values, under global CSR `offsets`, fit its 32-bit
/// offsets.
bool ChunkPoolsFit(std::span<const uint64_t> offsets) {
  const size_t n = offsets.size() - 1;
  for (size_t lo = 0; lo < n; lo += kSlotChunk) {
    const size_t hi = std::min(n, lo + kSlotChunk);
    if (offsets[hi] - offsets[lo] > UINT32_MAX) return false;
  }
  return true;
}

constexpr const char* kChunkOverflow =
    "frozen index: a slot chunk's values overflow its 32-bit offsets";

/// The per-slot arrays of an image built whole, one block each, and the
/// chunk views into them. Every chunk of such an image aliases this one
/// object, so a later delta that shares any of them keeps it all alive.
struct SlotBlock {
  std::vector<Edge> edges;
  std::vector<uint8_t> live;
  std::vector<uint32_t> offsets;  // per chunk: its slots + 1, from 0
  std::vector<uint32_t> pool;
  std::vector<SlotChunk> chunks;
};

/// Chunk `c` of a delta image, rebuilt in one allocation: the base's chunk
/// `old` (null past the base) grown to `count` slots, with patched slots
/// [first, last) of `patch`, all in this chunk, overwritten. Each run of
/// unpatched slots is one block copy of the old pool, its offsets shifted.
std::shared_ptr<const SlotChunk> RebuildChunk(const SlotChunk* old, size_t c,
                                              size_t count,
                                              const SlotPatch& patch,
                                              size_t first, size_t last) {
  const size_t lo = c * kSlotChunk;
  const size_t old_count = old != nullptr ? old->edges.size() : 0;
  auto patched_sizes = [&](size_t i) -> std::span<const uint32_t> {
    return {patch.sizes.values.data() + patch.sizes.offsets[i],
            patch.sizes.values.data() + patch.sizes.offsets[i + 1]};
  };
  uint64_t values = old != nullptr ? old->pool.size() : 0;
  for (size_t i = first; i < last; ++i) {
    const size_t j = patch.ids[i] - lo;
    if (j < old_count) values -= old->Sizes(j).size();
    values += patched_sizes(i).size();
  }
  if (values > UINT32_MAX) throw std::length_error(kChunkOverflow);

  // One buffer: the chunk header, then its edges, offsets, pool and live
  // flags, each at an offset aligned for its type.
  static_assert(sizeof(SlotChunk) % alignof(Edge) == 0 &&
                alignof(SlotChunk) <= alignof(uint64_t));
  const size_t bytes = sizeof(SlotChunk) + count * sizeof(Edge) +
                       (count + 1 + values) * sizeof(uint32_t) + count;
  std::shared_ptr<uint64_t[]> buffer =
      std::make_shared_for_overwrite<uint64_t[]>((bytes + 7) / 8);
  auto* at = reinterpret_cast<std::byte*>(buffer.get()) + sizeof(SlotChunk);
  auto* edges = reinterpret_cast<Edge*>(at);
  auto* offsets = reinterpret_cast<uint32_t*>(edges + count);
  uint32_t* pool = offsets + count + 1;
  auto* live = reinterpret_cast<uint8_t*>(pool + values);
  if (old != nullptr) {
    std::uninitialized_copy(old->edges.begin(), old->edges.end(), edges);
    std::uninitialized_copy(old->live.begin(), old->live.end(), live);
  }
  std::uninitialized_value_construct_n(edges + old_count, count - old_count);
  std::uninitialized_fill_n(live + old_count, count - old_count, uint8_t{0});

  uint32_t end = 0;
  auto copy_run = [&](size_t from, size_t to) {
    assert(from == to || to <= old_count);  // slots past the base are patched
    if (from == to) return;
    const uint32_t base = old->offsets[from];
    for (size_t j = from; j < to; ++j) {
      std::construct_at(offsets + j, old->offsets[j] - base + end);
    }
    const uint32_t n = old->offsets[to] - base;
    std::uninitialized_copy_n(old->pool.data() + base, n, pool + end);
    end += n;
  };
  size_t next = 0;
  for (size_t i = first; i < last; ++i) {
    const size_t j = patch.ids[i] - lo;
    copy_run(next, j);
    std::construct_at(offsets + j, end);
    std::span<const uint32_t> now = patched_sizes(i);
    assert(std::is_sorted(now.begin(), now.end()));
    assert(patch.live[i] || now.empty());
    std::uninitialized_copy(now.begin(), now.end(), pool + end);
    end += static_cast<uint32_t>(now.size());
    edges[j] = patch.edges[i];
    live[j] = patch.live[i];
    next = j + 1;
  }
  copy_run(next, count);
  std::construct_at(offsets + count, end);
  assert(end == values);

  SlotChunk* chunk = std::construct_at(
      reinterpret_cast<SlotChunk*>(buffer.get()),
      SlotChunk{{edges, count}, {live, count}, {offsets, count + 1},
                {pool, values}});
  return std::shared_ptr<const SlotChunk>(std::move(buffer), chunk);
}

/// The per-slot arrays of `image`, flat: the first four arrays of Parts.
void FlattenSlots(const FrozenEsdIndex& image, FrozenEsdIndex::Parts* out) {
  out->edges.reserve(image.EdgeSlotCount());
  out->live.reserve(image.EdgeSlotCount());
  out->size_offsets.reserve(image.EdgeSlotCount() + 1);
  out->size_offsets.push_back(0);
  out->size_pool.reserve(image.SizePool().size());
  for (size_t c = 0; c < image.NumChunks(); ++c) {
    const SlotChunk& chunk = *image.Chunk(c);
    out->edges.insert(out->edges.end(), chunk.edges.begin(),
                      chunk.edges.end());
    out->live.insert(out->live.end(), chunk.live.begin(), chunk.live.end());
    const uint64_t at = out->size_pool.size();
    for (size_t j = 1; j < chunk.offsets.size(); ++j) {
      out->size_offsets.push_back(at + chunk.offsets[j]);
    }
    out->size_pool.insert(out->size_pool.end(), chunk.pool.begin(),
                          chunk.pool.end());
  }
}

}  // namespace

void FrozenEsdIndex::AdoptSlots(std::vector<Edge> edges,
                                std::vector<uint8_t> live,
                                std::span<const uint64_t> offsets,
                                std::vector<uint32_t> pool) {
  const size_t n = edges.size();
  assert(live.size() == n && offsets.size() == n + 1 &&
         offsets[n] == pool.size() && ChunkPoolsFit(offsets));
  const size_t num_chunks = ChunkCount(n);
  auto block = std::make_shared<SlotBlock>();
  block->edges = std::move(edges);
  block->live = std::move(live);
  block->pool = std::move(pool);
  block->offsets.resize(n + num_chunks);
  block->chunks.resize(num_chunks);
  chunks_.clear();
  chunks_.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = c * kSlotChunk, hi = std::min(n, lo + kSlotChunk);
    const uint64_t at = offsets[lo];
    uint32_t* local = block->offsets.data() + lo + c;
    for (size_t e = lo; e <= hi; ++e) {
      local[e - lo] = static_cast<uint32_t>(offsets[e] - at);
    }
    SlotChunk& chunk = block->chunks[c];
    chunk.edges = std::span<const Edge>(block->edges).subspan(lo, hi - lo);
    chunk.live = std::span<const uint8_t>(block->live).subspan(lo, hi - lo);
    chunk.offsets = {local, hi - lo + 1};
    chunk.pool = std::span<const uint32_t>(block->pool)
                     .subspan(at, offsets[hi] - at);
    chunks_.emplace_back(block, &chunk);
  }
  num_slots_ = n;
  pool_size_ = offsets[n];
}

FrozenEsdIndex FrozenEsdIndex::FromSizePool(std::vector<Edge> edges,
                                            EdgeSizePool sizes,
                                            std::vector<uint8_t> live,
                                            ScorerKind scorer) {
  FrozenEsdIndex out;
  out.scorer_ = scorer;
  const size_t n = edges.size();
  assert(sizes.offsets.size() == n + 1);
  if (live.empty()) live.assign(n, 1);
  assert(live.size() == n);
  for (size_t e = 0; e < n; ++e) {
    assert(live[e] || sizes.offsets[e] == sizes.offsets[e + 1]);
    out.num_live_ += live[e] != 0;
  }
  if (!ChunkPoolsFit(sizes.offsets)) throw std::length_error(kChunkOverflow);
  ListLayout lists = LayOutLists(sizes.offsets, sizes.values);
  out.sizes_ = std::move(lists.sizes);
  out.counts_ = std::move(lists.counts);
  out.offsets_ = std::move(lists.offsets);
  out.entries_ = std::move(lists.entries);
  out.AdoptSlots(std::move(edges), std::move(live), sizes.offsets,
                 std::move(sizes.values));
  return out;
}

FrozenEsdIndex FrozenEsdIndex::FromDelta(const FrozenEsdIndex& base,
                                         const SlotPatch& patch) {
  const size_t n = patch.slot_count;
  const size_t base_n = base.num_slots_;
  const size_t np = patch.ids.size();
  assert(n >= base_n && patch.edges.size() == np && patch.live.size() == np &&
         patch.sizes.offsets.size() == np + 1);
  auto patched_sizes = [&](size_t i) -> std::span<const uint32_t> {
    return {patch.sizes.values.data() + patch.sizes.offsets[i],
            patch.sizes.values.data() + patch.sizes.offsets[i + 1]};
  };
  FrozenEsdIndex out;
  out.scorer_ = base.scorer_;
  out.num_slots_ = n;
  out.num_live_ = base.num_live_;
  out.pool_size_ = base.pool_size_;

  // Chunks: the base's table, grown to the table's slot count, with each
  // chunk that holds a patched slot rebuilt. Every chunk past the base's
  // holds one, since every slot past the base's is patched.
  out.chunks_.reserve(ChunkCount(n));
  out.chunks_.assign(base.chunks_.begin(), base.chunks_.end());
  out.chunks_.resize(ChunkCount(n));
  for (size_t first = 0, last = 0; first < np; first = last) {
    const size_t c = patch.ids[first] / kSlotChunk;
    for (; last < np && patch.ids[last] / kSlotChunk == c; ++last) {
      const EdgeId e = patch.ids[last];
      assert(e < n && (last == 0 || patch.ids[last - 1] < e));
      if (e < base_n) out.num_live_ -= base.IsLive(e) ? 1 : 0;
      out.num_live_ += patch.live[last];
    }
    const SlotChunk* old =
        c < base.chunks_.size() ? base.chunks_[c].get() : nullptr;
    out.chunks_[c] =
        RebuildChunk(old, c, std::min(kSlotChunk, n - c * kSlotChunk), patch,
                     first, last);
    out.pool_size_ = out.pool_size_ - (old != nullptr ? old->pool.size() : 0) +
                     out.chunks_[c]->pool.size();
  }
  assert(std::all_of(out.chunks_.begin(), out.chunks_.end(),
                     [](const auto& chunk) { return chunk != nullptr; }));

  // C by counts: the base's, minus each value of a gone multiset, plus
  // each value of a fresh one; a size whose count reaches 0 leaves C.
  std::vector<std::pair<uint32_t, int32_t>> tally;
  size_t tally_len = patch.sizes.values.size();
  for (EdgeId e : patch.ids) {
    if (e < base_n) tally_len += base.EdgeSizes(e).size();
  }
  tally.reserve(tally_len);
  for (size_t i = 0; i < np; ++i) {
    if (patch.ids[i] < base_n) {
      for (uint32_t v : base.EdgeSizes(patch.ids[i])) tally.push_back({v, -1});
    }
    for (uint32_t v : patched_sizes(i)) tally.push_back({v, 1});
  }
  std::sort(tally.begin(), tally.end());
  const size_t base_c = base.sizes_.size();
  out.sizes_.reserve(base_c + tally.size());
  out.counts_.reserve(base_c + tally.size());
  for (size_t b = 0, t = 0; b < base_c || t < tally.size();) {
    const uint32_t v = t == tally.size() ? base.sizes_[b]
                       : b == base_c
                           ? tally[t].first
                           : std::min(base.sizes_[b], tally[t].first);
    int64_t count = 0;
    if (b < base_c && base.sizes_[b] == v) {
      count = static_cast<int64_t>(base.counts_[b++]);
    }
    for (; t < tally.size() && tally[t].first == v; ++t) {
      count += tally[t].second;
    }
    assert(count >= 0);
    if (count == 0) continue;
    out.sizes_.push_back(v);
    out.counts_.push_back(static_cast<uint64_t>(count));
  }
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
  fresh.reserve(np);
  gone.reserve(np);
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
  add.reserve(fresh.size());
  drop.reserve(gone.size());
  for (size_t i = 0; i < num_c; ++i) {
    const uint32_t c = out.sizes_[i];
    add.clear();
    for (size_t j = 0, p = prefix(fresh, c); j < p; ++j) {
      add.push_back(Entry{ScoreFromSizes(fresh[j].sizes, c), fresh[j].e});
    }
    std::sort(add.begin(), add.end(), ListOrder());
    std::span<const Entry> old;
    drop.clear();
    if (from[i] != kNoSlab) {
      old = base.ListAt(from[i]);
      const uint32_t c_old = base.sizes_[from[i]];
      for (size_t j = 0, p = prefix(gone, c_old); j < p; ++j) {
        const Entry was{ScoreFromSizes(gone[j].sizes, c_old), gone[j].e};
        const auto at =
            std::lower_bound(old.begin(), old.end(), was, ListOrder());
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
          std::lower_bound(old.begin() + pos, old.end(), x, ListOrder()) -
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
  if (!ChunkPoolsFit(parts.size_offsets)) return fail(kChunkOverflow);
  // C must be exactly the distinct sizes occurring in the pool.
  std::vector<uint32_t> want, rank;
  std::vector<uint64_t> counts;
  TallyDistinctSizes(parts.size_pool,
                     parts.size_pool.empty()
                         ? 0
                         : *std::max_element(parts.size_pool.begin(),
                                             parts.size_pool.end()),
                     &want, &counts, &rank);
  if (want != parts.sizes) {
    return fail("frozen index: size set C does not match multisets");
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
      if (j > lo && !ListOrder()(parts.entries[j - 1], entry)) {
        return fail("frozen index: slab not in canonical order");
      }
      if (entry.e >= n || parts.live[entry.e] == 0) {
        return fail("frozen index: slab entry references bad edge");
      }
      std::span<const uint32_t> sizes{
          parts.size_pool.data() + parts.size_offsets[entry.e],
          parts.size_pool.data() + parts.size_offsets[entry.e + 1]};
      if (entry.score != ScoreFromSizes(sizes, c) || entry.score == 0) {
        return fail("frozen index: slab score inconsistent with multiset");
      }
    }
  }
  out->AdoptSlots(std::move(parts.edges), std::move(parts.live),
                  parts.size_offsets, std::move(parts.size_pool));
  out->sizes_ = std::move(parts.sizes);
  out->counts_ = std::move(counts);
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
    out.push_back(ScoredEdge{EdgeAt(slab[i].e), slab[i].score});
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
  // `out` is the unpadded answer and holds fewer than k entries, so it is
  // the whole slab. An edge is in slab i exactly when its multiset is
  // non-empty and its largest value (the last, ascending) reaches sizes_[i];
  // kNoSlab holds no edge. So membership is a per-edge test, no set.
  const bool has_slab = slab_index != kNoSlab;
  const uint32_t c = has_slab ? sizes_[slab_index] : 0;
  for (size_t i = 0; i < chunks_.size() && out.size() < k; ++i) {
    const SlotChunk& chunk = *chunks_[i];
    for (size_t j = 0; j < chunk.edges.size() && out.size() < k; ++j) {
      const uint32_t hi = chunk.offsets[j + 1];
      const bool in_slab =
          has_slab && hi != chunk.offsets[j] && chunk.pool[hi - 1] >= c;
      if (chunk.live[j] && !in_slab) {
        out.push_back(ScoredEdge{chunk.edges[j], 0});
      }
    }
  }
}

uint32_t FrozenEsdIndex::ScoreOf(EdgeId e, uint32_t tau) const {
  return ScoreFromSizes(EdgeSizes(e), tau);
}

uint64_t FrozenEsdIndex::MemoryBytes() const {
  uint64_t bytes =
      entries_.size() * sizeof(Entry) + sizes_.size() * sizeof(uint32_t) +
      counts_.size() * sizeof(uint64_t) + offsets_.size() * sizeof(uint64_t) +
      chunks_.size() *
          (sizeof(std::shared_ptr<const SlotChunk>) + sizeof(SlotChunk));
  for (const auto& chunk : chunks_) {
    bytes += chunk->edges.size_bytes() + chunk->live.size_bytes() +
             chunk->offsets.size_bytes() + chunk->pool.size_bytes();
  }
  return bytes;
}

size_t FrozenEsdIndex::ChunksSharedWith(const FrozenEsdIndex& other) const {
  size_t shared = 0;
  for (size_t i = 0; i < std::min(chunks_.size(), other.chunks_.size()); ++i) {
    shared += chunks_[i] == other.chunks_[i] ? 1 : 0;
  }
  return shared;
}

FrozenEsdIndex::Parts FrozenEsdIndex::ToParts() const {
  Parts parts;
  parts.scorer = scorer_;
  FlattenSlots(*this, &parts);
  parts.sizes = sizes_;
  parts.offsets = offsets_.empty() ? std::vector<uint64_t>{0} : offsets_;
  parts.entries = entries_;
  return parts;
}

bool operator==(const FrozenEsdIndex& a, const FrozenEsdIndex& b) {
  if (a.scorer_ != b.scorer_ || a.num_slots_ != b.num_slots_ ||
      a.sizes_ != b.sizes_ || a.counts_ != b.counts_ ||
      a.offsets_ != b.offsets_ || a.entries_ != b.entries_) {
    return false;
  }
  for (size_t i = 0; i < a.chunks_.size(); ++i) {
    const SlotChunk& x = *a.chunks_[i];
    const SlotChunk& y = *b.chunks_[i];
    if (&x == &y) continue;
    if (!std::ranges::equal(x.edges, y.edges) ||
        !std::ranges::equal(x.live, y.live) ||
        !std::ranges::equal(x.offsets, y.offsets) ||
        !std::ranges::equal(x.pool, y.pool)) {
      return false;
    }
  }
  return true;
}

FrozenEsdIndex Freeze(const EdgeSizeTable& table) {
  // Freed slots carry empty multisets, so packing every slot keeps them
  // empty in the pool.
  EdgeSizePool sizes =
      EdgeSizePool::Pack(table.EdgeSlotCount(), [&](size_t e) {
        return table.EdgeSizes(static_cast<EdgeId>(e));
      });
  return FrozenEsdIndex::FromSizePool(
      {table.Edges().begin(), table.Edges().end()}, std::move(sizes),
      {table.LiveMask().begin(), table.LiveMask().end()}, table.Scorer());
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
      slots.size(), [&](size_t i) { return table.EdgeSizes(slots[i]); });
  patch.ids = std::move(slots);
  return patch;
}

EsdIndex Thaw(const FrozenEsdIndex& frozen) {
  obs::PhaseSeries phases;
  phases.Begin("build.hlist_build");
  FrozenEsdIndex::Parts slots;
  FlattenSlots(frozen, &slots);
  EsdIndex out;
  out.EdgeSizeTable::BulkLoad(
      std::move(slots.edges),
      EdgeSizePool{std::move(slots.size_offsets), std::move(slots.size_pool)},
      std::move(slots.live));
  out.SetScorerKind(frozen.Scorer());
  out.BuildLists(frozen.Sizes(), frozen.SlabOffsets(), frozen.Entries());
  return out;
}

}  // namespace esd::core
