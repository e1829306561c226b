#include "util/dsu.h"

#include <algorithm>
#include <cassert>

namespace esd::util {

namespace {

bool IsRoot(uint32_t word) { return (word & kDsuRoot) != 0; }

}  // namespace

size_t KeyedDsu::LowerBound(uint32_t v) const {
  return static_cast<size_t>(
      std::lower_bound(
          slots_.begin(), slots_.end(), v,
          [](const Slot& s, uint32_t key) { return s.vertex < key; }) -
      slots_.begin());
}

uint32_t KeyedDsu::SlotOf(uint32_t v) const {
  const size_t i = LowerBound(v);
  assert(i < slots_.size() && slots_[i].vertex == v);
  return static_cast<uint32_t>(i);
}

bool KeyedDsu::AddMember(uint32_t v) {
  if (Contains(v)) return false;
  AddMembers({&v, 1});
  return true;
}

void KeyedDsu::AddMembers(std::span<const uint32_t> vs) {
  assert(slots_.size() + vs.size() < kDsuRoot);
  if (vs.empty()) return;
  // A slot moves up by the number of new members below it, and so does
  // every word that points at it; an append moves none.
  if (!slots_.empty() && vs.front() < slots_.back().vertex) {
    for (Slot& s : slots_) {
      if (IsRoot(s.parent)) continue;
      const uint32_t parent = slots_[s.parent].vertex;
      s.parent += static_cast<uint32_t>(
          std::lower_bound(vs.begin(), vs.end(), parent) - vs.begin());
    }
  }
  // Merge from the back, in place.
  size_t old = slots_.size(), add = vs.size();
  slots_.resize(old + add);
  for (size_t k = slots_.size(); add > 0;) {
    --k;
    if (old > 0 && slots_[old - 1].vertex > vs[add - 1]) {
      slots_[k] = slots_[--old];
    } else {
      assert(old == 0 || slots_[old - 1].vertex != vs[add - 1]);
      slots_[k] = {vs[--add], kDsuRoot | 1};
    }
  }
}

bool KeyedDsu::Contains(uint32_t v) const {
  const size_t i = LowerBound(v);
  return i < slots_.size() && slots_[i].vertex == v;
}

uint32_t KeyedDsu::Find(uint32_t v) {
  return slots_[FindSlot(SlotOf(v))].vertex;
}

uint32_t KeyedDsu::ComponentSize(uint32_t v) {
  return slots_[FindSlot(SlotOf(v))].parent & ~kDsuRoot;
}

size_t KeyedDsu::NumComponents() const {
  return static_cast<size_t>(std::count_if(
      slots_.begin(), slots_.end(),
      [](const Slot& s) { return IsRoot(s.parent); }));
}

bool KeyedDsu::RemoveSingleton(uint32_t v) {
  const size_t pos = LowerBound(v);
  if (pos == slots_.size() || slots_[pos].vertex != v ||
      slots_[pos].parent != (kDsuRoot | 1)) {
    return false;
  }
  slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(pos));
  // A singleton is no member's parent: words past it move down one slot.
  for (Slot& s : slots_) {
    if (!IsRoot(s.parent) && s.parent > pos) --s.parent;
  }
  return true;
}

void KeyedDsu::ComponentMembers(uint32_t v, std::vector<uint32_t>* out) {
  const uint32_t root = FindSlot(SlotOf(v));
  out->clear();
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (FindSlot(i) == root) out->push_back(slots_[i].vertex);
  }
}

void KeyedDsu::RemoveComponent(uint32_t v) {
  const uint32_t root = FindSlot(SlotOf(v));
  const auto n = static_cast<uint32_t>(slots_.size());
  // Every member points straight at its root.
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t r = FindSlot(i);
    if (r != i) slots_[i].parent = r;
  }
  // Mark v's component kGone; every other root's word becomes kDsuRoot |
  // its index once the component is gone. Both lie above any slot index.
  constexpr uint32_t kGone = ~0u;
  uint32_t gone = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t& word = slots_[i].parent;
    if (i == root || word == root) {
      word = kGone;
      ++gone;
    } else if (IsRoot(word)) {
      word = kDsuRoot | (i - gone);
    }
  }
  for (Slot& s : slots_) {
    if (!IsRoot(s.parent)) s.parent = slots_[s.parent].parent & ~kDsuRoot;
  }
  std::erase_if(slots_, [](const Slot& s) { return s.parent == kGone; });
  // Recount the sizes the new indices displaced.
  for (Slot& s : slots_) {
    if (IsRoot(s.parent)) s.parent = kDsuRoot | 1;
  }
  for (Slot& s : slots_) {
    if (!IsRoot(s.parent)) ++slots_[s.parent].parent;
  }
}

std::vector<uint32_t> KeyedDsu::ComponentSizes() const {
  std::vector<uint32_t> sizes;
  ForEachComponent([&](uint32_t, uint32_t size) { sizes.push_back(size); });
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

}  // namespace esd::util
