#include "core/esd_index.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace esd::core {

using graph::Edge;
using graph::EdgeId;

void EsdIndex::RemoveEntries(EdgeId e, const std::vector<uint32_t>& sizes) {
  if (sizes.empty()) return;
  const uint32_t max_size = sizes.back();
  for (auto it = lists_.begin();
       it != lists_.end() && it->first <= max_size; ++it) {
    uint32_t score = static_cast<uint32_t>(
        sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), it->first));
    bool erased = it->second.Erase(Entry{score, e});
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

void EsdIndex::InsertEntries(EdgeId e, const std::vector<uint32_t>& sizes) {
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
    uint32_t score = static_cast<uint32_t>(
        sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), it->first));
    bool ok = it->second.Insert(Entry{score, e});
    assert(ok);
    (void)ok;
    ++num_entries_;
  }
}

void EsdIndex::SetEdgeSizes(EdgeId e, std::vector<uint32_t> sorted_sizes) {
  if (EdgeSizes(e) == sorted_sizes) return;
  RemoveEntries(e, EdgeSizes(e));
  InsertEntries(e, sorted_sizes);
  EdgeSizeTable::SetEdgeSizes(e, std::move(sorted_sizes));
}

void EsdIndex::BulkLoad(std::vector<Edge> edges,
                        std::vector<std::vector<uint32_t>> sizes_per_edge) {
  obs::PhaseSeries phases;
  phases.Begin("build.hlist_build");
  EdgeSizeTable::BulkLoad(std::move(edges), std::move(sizes_per_edge));
  lists_.clear();
  size_owner_count_.clear();
  num_entries_ = 0;
  const EdgeId slots = static_cast<EdgeId>(EdgeSlotCount());

  // Owner counts and the distinct size set C.
  for (EdgeId e = 0; e < slots; ++e) {
    const auto& sizes = EdgeSizes(e);
    assert(std::is_sorted(sizes.begin(), sizes.end()));
    for (size_t i = 0; i < sizes.size(); ++i) {
      if (i > 0 && sizes[i] == sizes[i - 1]) continue;
      ++size_owner_count_[sizes[i]];
    }
  }
  std::vector<uint32_t> all_c;
  all_c.reserve(size_owner_count_.size());
  for (const auto& [c, cnt] : size_owner_count_) all_c.push_back(c);

  // Group edges by the maximum component size of their ego-network, then
  // sweep c from largest to smallest, keeping the set of edges with
  // max >= c "active" and emitting one sorted run per list.
  std::map<uint32_t, std::vector<EdgeId>, std::greater<>> by_max;
  for (EdgeId e = 0; e < slots; ++e) {
    if (!EdgeSizes(e).empty()) by_max[EdgeSizes(e).back()].push_back(e);
  }
  std::vector<EdgeId> active;
  auto max_it = by_max.begin();
  std::vector<Entry> run;
  for (auto c_it = all_c.rbegin(); c_it != all_c.rend(); ++c_it) {
    uint32_t c = *c_it;
    while (max_it != by_max.end() && max_it->first >= c) {
      active.insert(active.end(), max_it->second.begin(),
                    max_it->second.end());
      ++max_it;
    }
    run.clear();
    run.reserve(active.size());
    for (EdgeId e : active) {
      const auto& sizes = EdgeSizes(e);
      uint32_t score = static_cast<uint32_t>(
          sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), c));
      run.push_back(Entry{score, e});
    }
    std::sort(run.begin(), run.end(), [](const Entry& a, const Entry& b) {
      return EntryLess()(a, b);
    });
    List list;
    list.BuildFromSorted(run);
    num_entries_ += list.size();
    lists_.emplace(c, std::move(list));
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
      const auto& sizes = EdgeSizes(e);
      return has_list && !sizes.empty() && sizes.back() >= c;
    };
    for (EdgeId e = 0; e < EdgeSlotCount() && out.size() < k; ++e) {
      if (IsLive(e) && !in_list(e)) out.push_back(ScoredEdge{EdgeAt(e), 0});
    }
  }
  return out;
}

uint32_t EsdIndex::ScoreOf(EdgeId e, uint32_t tau) const {
  const auto& sizes = EdgeSizes(e);
  return static_cast<uint32_t>(
      sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), tau));
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
