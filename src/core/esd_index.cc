#include "core/esd_index.h"

#include <algorithm>
#include <cassert>

#include "core/ego_network.h"
#include "obs/trace.h"

namespace esd::core {

using graph::Edge;
using graph::EdgeId;

void EsdIndex::RemoveEntries(EdgeId e, std::span<const uint32_t> sizes) {
  if (sizes.empty()) return;
  const uint32_t max_size = sizes.back();
  for (auto it = lists_.begin();
       it != lists_.end() && it->first <= max_size; ++it) {
    bool erased = it->second.Erase(Entry{ScoreFromSizes(sizes, it->first), e});
    assert(erased);
    (void)erased;
    --num_entries_;
  }
  // Update owner counts for e's distinct sizes; drop lists that lost their
  // last owner (queries then fall through to the next larger c, which by
  // Theorem 4 yields identical answers).
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0 && sizes[i] == sizes[i - 1]) continue;
    auto cnt = size_owner_count_.find(sizes[i]);
    assert(cnt != size_owner_count_.end());
    if (--cnt->second == 0) {
      size_owner_count_.erase(cnt);
      auto list_it = lists_.find(sizes[i]);
      assert(list_it != lists_.end());
      num_entries_ -= list_it->second.size();
      lists_.erase(list_it);
    }
  }
}

void EsdIndex::InsertEntries(EdgeId e, std::span<const uint32_t> sizes) {
  if (sizes.empty()) return;
  // First materialize lists for never-before-seen sizes by cloning the next
  // larger list: exact because no edge currently owns a component size in
  // the gap (see DESIGN.md §3 and the proof of Theorem 4).
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0 && sizes[i] == sizes[i - 1]) continue;
    uint32_t s = sizes[i];
    auto [cnt, inserted] = size_owner_count_.try_emplace(s, 0);
    ++cnt->second;
    if (inserted) {
      auto next = lists_.upper_bound(s);
      List clone = next == lists_.end() ? List() : next->second;
      num_entries_ += clone.size();
      lists_.emplace(s, std::move(clone));
    }
  }
  const uint32_t max_size = sizes.back();
  for (auto it = lists_.begin();
       it != lists_.end() && it->first <= max_size; ++it) {
    bool ok = it->second.Insert(Entry{ScoreFromSizes(sizes, it->first), e});
    assert(ok);
    (void)ok;
    ++num_entries_;
  }
}

void EsdIndex::SetEdgeSizes(EdgeId e, std::span<const uint32_t> sorted_sizes) {
  const std::span<const uint32_t> was = EdgeSizes(e);
  if (std::equal(was.begin(), was.end(), sorted_sizes.begin(),
                 sorted_sizes.end())) {
    return;
  }
  RemoveEntries(e, was);
  InsertEntries(e, sorted_sizes);
  EdgeSizeTable::SetEdgeSizes(e, sorted_sizes);
}

void EsdIndex::BulkLoad(std::vector<Edge> edges, EdgeSizePool sizes) {
  const ListLayout lists = LayOutLists(sizes.offsets, sizes.values);
  obs::PhaseSeries phases;
  phases.Begin("build.hlist_build");
  EdgeSizeTable::BulkLoad(std::move(edges), std::move(sizes));
  BuildLists(lists.sizes, lists.offsets, lists.entries);
}

void EsdIndex::BuildLists(std::span<const uint32_t> sizes,
                          std::span<const uint64_t> offsets,
                          std::span<const ListEntry> entries) {
  lists_.clear();
  for (size_t i = 0; i < sizes.size(); ++i) {
    List list;
    list.BuildFromSorted(
        entries.subspan(offsets[i], offsets[i + 1] - offsets[i]));
    lists_.emplace_hint(lists_.end(), sizes[i], std::move(list));
  }
  num_entries_ = entries.size();
  // Owner counts: each edge's distinct values, ranked in C.
  std::vector<uint32_t> owners(sizes.size(), 0);
  for (EdgeId e = 0; e < EdgeSlotCount(); ++e) {
    const std::span<const uint32_t> s = EdgeSizes(e);
    for (size_t i = 0; i < s.size(); ++i) {
      if (i > 0 && s[i] == s[i - 1]) continue;
      ++owners[std::lower_bound(sizes.begin(), sizes.end(), s[i]) -
               sizes.begin()];
    }
  }
  size_owner_count_.clear();
  for (size_t i = 0; i < sizes.size(); ++i) {
    size_owner_count_.emplace_hint(size_owner_count_.end(), sizes[i],
                                   owners[i]);
  }
}

TopKResult EsdIndex::Query(uint32_t k, uint32_t tau,
                           bool pad_with_zero_edges) const {
  TopKResult out;
  if (k == 0 || tau == 0) return out;
  counters_.AddQuery();
  counters_.AddSlabSearch();
  auto it = lists_.lower_bound(tau);
  if (it != lists_.end()) {
    it->second.ForEachInOrder([&](const Entry& entry) {
      if (out.size() >= k) return false;
      out.push_back(ScoredEdge{EdgeAt(entry.e), entry.score});
      return true;
    });
  }
  // Only the H-list entries walked count: zero-padded filler never touches
  // a list (FrozenEsdIndex counts its slab prefix the same way).
  counters_.AddEntriesScanned(out.size());
  if (pad_with_zero_edges && out.size() < k) {
    // Documented deterministic padding order: lowest-id live edges first,
    // skipping edges already reported (FrozenEsdIndex pads identically).
    // The answer is short, so it holds all of H(c*): an edge was reported
    // exactly when its multiset is non-empty and its largest value (the
    // last, ascending) reaches c*; no list means no edge was.
    const bool has_list = it != lists_.end();
    const uint32_t c = has_list ? it->first : 0;
    auto in_list = [&](EdgeId e) {
      const std::span<const uint32_t> sizes = EdgeSizes(e);
      return has_list && !sizes.empty() && sizes.back() >= c;
    };
    for (EdgeId e = 0; e < EdgeSlotCount() && out.size() < k; ++e) {
      if (IsLive(e) && !in_list(e)) out.push_back(ScoredEdge{EdgeAt(e), 0});
    }
  }
  return out;
}

uint32_t EsdIndex::ScoreOf(EdgeId e, uint32_t tau) const {
  return ScoreFromSizes(EdgeSizes(e), tau);
}

std::vector<uint32_t> EsdIndex::DistinctSizes() const {
  std::vector<uint32_t> out;
  out.reserve(lists_.size());
  for (const auto& [c, list] : lists_) out.push_back(c);
  return out;
}

uint64_t EsdIndex::MemoryBytes() const {
  // Treap node: Entry (8) + priority/left/right (12).
  uint64_t bytes = num_entries_ * 20;
  for (EdgeId e = 0; e < EdgeSlotCount(); ++e) {
    bytes += EdgeSizes(e).size() * sizeof(uint32_t);
  }
  bytes += EdgeSlotCount() * (sizeof(Edge) + sizeof(uint8_t));
  return bytes;
}

}  // namespace esd::core
